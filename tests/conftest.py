import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import corpus, dirac_start  # noqa: E402

ACCEPTANCE_LINES = []


def record_criterion(line: str) -> None:
    """Collect acceptance pass lines for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model_corpus():
    return corpus()


@pytest.fixture
def dirac_seed(monkeypatch):
    """Constraint generation from the Dirac seed, its first LP cold, as where
    the crash start cannot apply."""
    from riskmdp import game
    monkeypatch.setattr(game, "_crash_start", dirac_start)
