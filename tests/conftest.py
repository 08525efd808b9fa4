import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import corpus, crash_lp_start, dirac_start  # noqa: E402

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


@pytest.fixture
def crash_lp(monkeypatch):
    """Constraint generation with its first round always an LP from the
    crash basis, as where the crash point does not verify."""
    from riskmdp import game
    monkeypatch.setattr(game, "_crash_start", crash_lp_start)


@pytest.fixture
def value_drop(monkeypatch):
    """The grid sweep with its second resolution's value lowered by 1e-3,
    as an LP bug would lower it."""
    from dataclasses import replace

    from riskmdp import game
    restricted_master = game._restricted_master
    calls = []

    def lowered(*args, **kwargs):
        (rows, owner, rnd), *rest = restricted_master(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            rnd = replace(rnd, beta=rnd.beta - 1e-3)
        return ((rows, owner, rnd), *rest)

    monkeypatch.setattr(game, "_restricted_master", lowered)
