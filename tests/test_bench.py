"""The BENCH ladder (bench/ladder.py) runs its smallest rung through the
module and writes a BENCH file of the documented schema."""

import importlib.util
import json
import math
from pathlib import Path

from riskmdp.game import solve_congen

from helpers import random_model

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
RUNG_KEYS = {"name", "method", "models", "lp_solves", "pivots", "inversions",
             "inverse_sizes", "rounds", "lambda_bar", "wall_s"}
ENVIRONMENT_KEYS = {"python", "numpy", "blas", "blas_threads", "cpu_count", "machine"}


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_writes_its_smallest_rung(tmp_path, capsys):
    ladder = _ladder()
    path = ladder.main(["--tag", "test", "--rung", "congen-ring-32", "--repeats", "2",
                        "--out-dir", str(tmp_path)])
    assert path == tmp_path / "BENCH_test.json"
    assert capsys.readouterr().out.startswith("congen-ring-32: lp_solves ")
    bench = json.loads(path.read_text())
    assert set(bench) == {"schema_version", "tag", "environment", "repeats", "rungs"}
    assert (bench["schema_version"], bench["tag"], bench["repeats"]) == (1, "test", 2)
    assert set(bench["environment"]) == ENVIRONMENT_KEYS
    [rung] = bench["rungs"]
    assert set(rung) == RUNG_KEYS
    assert (rung["name"], rung["method"]) == ("congen-ring-32", "congen")
    for key in ("lp_solves", "pivots", "inversions", "rounds"):
        assert isinstance(rung[key], int) and rung[key] >= 0
    assert sum(rung["inverse_sizes"].values()) == rung["inversions"]
    assert rung["rounds"] >= 1
    assert rung["lambda_bar"] == [solve_congen(random_model(3, 32, 3)).lambda_bar]
    wall = rung["wall_s"]
    assert set(wall) == {"samples", "median", "q1", "q3", "min", "max"}
    assert wall["samples"] == 2 and all(math.isfinite(v) for v in wall.values())
    assert 0.0 < wall["min"] <= wall["median"] <= wall["max"]
