"""The benchmark's traced run wraps riskmdp names from outside the package
(solvebench/tracing.py); a change that deletes or renames one of them breaks
that run without failing any library test, so the wrappers are installed
here on the live modules, around one solve and one verify of its report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import riskmdp

from helpers import random_model, sticky_ring

SOLVEBENCH = Path(__file__).resolve().parents[1] / "solvebench"

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from riskmdp import certify, cli, game, lp, oracle
args = sys.argv[4:]
if args[:1] == ["dirac-seed"]:   # constraint generation's first LP cold, from the Dirac rows
    game._crash_start = lambda model: (*game.build_grid(model), None, None)
    args = args[1:]
tracer = Tracer()
tracer.install(cli, game, lp, oracle, certify)
code = cli.main(["solve", "--model", sys.argv[2], "--out", sys.argv[3], *args])
spans = sorted({span[0] for span in tracer.spans})
lp_solves = sum(span[0] == "lp.solve" for span in tracer.spans)
lp_builds = sum(span[0] == "lp.build" for span in tracer.spans)
emits = sum(span[0] == "cli.emit" for span in tracer.spans)
tracer.spans.clear()
verify_code = cli.main(["verify", "--model", sys.argv[2], "--solution", sys.argv[3]])
print(json.dumps({"code": code, "spans": spans, "counts": tracer.counts, "lp_solves": lp_solves,
                  "lp_builds": lp_builds, "emits": emits, "verify_code": verify_code,
                  "verify_spans": sorted({span[0] for span in tracer.spans}),
                  "verify_emits": sum(span[0] == "cli.emit" for span in tracer.spans)}))
"""

# every wrapper sits on a name a solve calls, under either method
SOLVE_SPANS = {
    "model.parse", "cli.emit", "grid.build", "game.tables", "oracle.tilde_cost",
    "lp.build", "lp.solve", "game.solve", "oracle.brute_force", "certify.certificate",
}
# a verify rebuilds the certificate from the report
VERIFY_SPANS = {"model.parse", "cli.emit", "certify.certificate"}


def _traced_solve(tmp_path, model, *solve_args) -> dict:
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
        [sys.executable, "-c", CHILD, str(SOLVEBENCH), str(path), str(tmp_path / "report.json"),
         *solve_args],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert set(result["verify_spans"]) == VERIFY_SPANS
    # canonical_json recurses through a private helper, so a report is one
    # cli.emit span and cli.emit_s counts its encoding once
    assert (result["emits"], result["verify_emits"]) == (1, 1)
    # the game states each LP it solves through LinearProgram.build, once
    assert result["lp_builds"] == result["lp_solves"]
    result["report"] = json.loads((tmp_path / "report.json").read_text())
    return result


def test_tracer_installs_on_live_modules_and_sees_a_solve(tmp_path):
    result = _traced_solve(tmp_path, random_model(11, 3, 2))
    assert set(result["spans"]) == SOLVE_SPANS
    assert result["verify_code"] == 0
    assert result["counts"]["game.resolutions"] >= 2


def test_tracer_sees_congen_and_grid_solves_without_polish_solves(tmp_path):
    # the sticky ring's worst case keeps the chain at its first state, so in
    # the grid's solve to n = 4 the other states carry no long-run mass, and
    # their maximizer rows are read off the last pricing call: each solve
    # makes one LP solve per restricted-master round and no polish solve
    # (an LP the tracer recognises by its 2s + s*m + 1 rows); congen starts
    # from the Dirac seed, as the crash start closes the ring in one round
    result = _traced_solve(tmp_path, sticky_ring(), "dirac-seed", "--method", "congen")
    assert set(result["spans"]) == SOLVE_SPANS
    assert result["counts"]["game.congen_rounds"] >= 2
    assert result["lp_solves"] == result["report"]["rounds"]
    assert "lp.polish_solves" not in result["counts"]
    result = _traced_solve(tmp_path, sticky_ring(), "--method", "grid", "--n-max", "4")
    assert set(result["spans"]) == SOLVE_SPANS
    assert result["lp_solves"] == sum(result["report"]["rounds"])
    assert "lp.polish_solves" not in result["counts"]
