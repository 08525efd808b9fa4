"""The benchmark's traced run wraps riskmdp names from outside the package
(solvebench/tracing.py); a change that deletes or renames one of them breaks
that run without failing any library test, so the wrappers are installed
here on the live modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import riskmdp

from helpers import random_model

SOLVEBENCH = Path(__file__).resolve().parents[1] / "solvebench"

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from riskmdp import certify, cli, game, lp, oracle
tracer = Tracer()
tracer.install(cli, game, lp, oracle, certify)
code = cli.main(["solve", "--model", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"code": code, "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_tracer_installs_on_live_modules_and_sees_a_solve(tmp_path):
    model = random_model(11, 3, 2)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "states": list(model.states), "actions": list(model.actions),
        "transitions": {a: model.kernel[u].tolist() for u, a in enumerate(model.actions)},
        "costs": model.cost.tolist(),
    }))
    # the child imports the same package as this process, installed or not
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SOLVEBENCH), str(path), str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    # every wrapper but lp.build (the solve path assembles its LPs directly)
    # sits on a name a default solve calls
    assert set(result["spans"]) == {
        "model.parse", "cli.emit", "grid.build", "game.tables", "oracle.tilde_cost",
        "lp.solve", "game.solve", "oracle.brute_force", "certify.certificate",
    }
