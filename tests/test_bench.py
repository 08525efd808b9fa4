"""The BENCH ladder (bench/ladder.py) runs its smallest rung through the
module and writes a BENCH file of the documented schema; the regression
sets (bench/regress.py) run a small slice and hold theirs."""

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

from riskmdp.game import solve_congen

from helpers import TWO_SUCCESSOR_SHAPES, corpus, random_model

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
RUNG_KEYS = {"name", "method", "models", "lp_solves", "pivots", "inversions",
             "inverse_sizes", "rounds", "lambda_bar", "wall_s", "cli_s"}
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
    assert (bench["schema_version"], bench["tag"], bench["repeats"]) == (2, "test", 2)
    assert set(bench["environment"]) == ENVIRONMENT_KEYS
    [rung] = bench["rungs"]
    assert set(rung) == RUNG_KEYS
    assert (rung["name"], rung["method"]) == ("congen-ring-32", "congen")
    for key in ("lp_solves", "pivots", "inversions", "rounds"):
        assert isinstance(rung[key], int) and rung[key] >= 0
    assert sum(rung["inverse_sizes"].values()) == rung["inversions"]
    assert rung["rounds"] >= 1
    assert rung["lambda_bar"] == [solve_congen(random_model(3, 32, 3)).lambda_bar]
    for key in ("wall_s", "cli_s"):
        wall = rung[key]
        assert set(wall) == {"samples", "median", "q1", "q3", "min", "max"}
        assert wall["samples"] == 2 and all(math.isfinite(v) for v in wall.values())
        assert 0.0 < wall["min"] <= wall["median"] <= wall["max"]


REGRESS = LADDER.parent / "regress.py"


def _regress():
    spec = importlib.util.spec_from_file_location("regress", REGRESS)
    regress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regress)
    return regress


def test_regress_writes_a_small_slice_of_its_sets():
    regress = _regress()
    data = regress.collect("test", corpus_models=corpus()[:2], workload_models=1,
                           two_successor_seeds=2)
    assert set(data) == {"schema_version", "tag", "environment", *regress.SECTIONS}
    assert (data["schema_version"], data["tag"]) == (1, "test")
    assert set(data["environment"]) == ENVIRONMENT_KEYS
    # 2 corpus models under both methods, 1 model of each of 3 workloads at
    # 2 seeds, the trap; oracle and policy-mode oracle on the corpus solves
    kinds = Counter(name.rsplit("/", 1)[-1] for name in data["reports"] if "/" in name)
    assert kinds == {"solve": 11, "verify": 11, "oracle": 2, "oracle-policy": 4}
    assert len(data["reports"]) == 28 + len(regress.EXAMPLE_RHOS)
    for name, entry in data["reports"].items():
        assert set(entry) == {"argv", "exit", "sha256"}
        assert entry["exit"] == (5 if name == "trap/verify" else 0), name
        assert len(entry["sha256"]) == 64
    assert set(data["lp_calls"]) == {n for n in data["reports"] if n.endswith("/solve")}
    # a two-state corpus model may take the closed form, with no LP
    assert sum(map(len, data["lp_calls"].values())) > 11
    for calls in data["lp_calls"].values():
        assert all(status == "optimal" and iterations >= 0 and len(digest) == 16
                   for status, iterations, digest in calls)
    assert len(data["two_successor"]) == 2 * 2 * len(TWO_SUCCESSOR_SHAPES)
    for code, digest, calls, iterations, calls_digest in data["two_successor"].values():
        assert code in (0, 4) and (digest is None) == (code == 4)
        assert calls >= 1 and iterations >= 0 and len(calls_digest) == 16
    assert json.loads(regress._text(data)) == data
    assert regress.compare(data, data) == []
    moved = json.loads(json.dumps(data))
    moved["reports"]["trap/solve"]["sha256"] = "0" * 64
    del moved["two_successor"]["s3m2-0/grid"]
    assert [line.split(":")[0] for line in regress.compare(data, moved)] == [
        "reports trap/solve", "two_successor s3m2-0/grid"]
    assert regress.summary(data)[0] == "solve: 11 by exit code {0: 11}"


def test_regress_compare_exits_1_on_a_move(tmp_path, capsys):
    # CI and every change read --compare by its exit code
    regress = _regress()
    data = {"schema_version": 1, "tag": "a", "environment": {"numpy": "2"},
            "reports": {"m/solve": {"argv": ["solve"], "exit": 0, "sha256": "0" * 64}},
            "lp_calls": {"m/solve": [["optimal", 3, "0" * 16]]},
            "two_successor": {"s3m2-0/grid": [0, "0" * 64, 1, 3, "0" * 16]}}
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(regress._text(data), encoding="utf-8")
    b.write_text(regress._text({**data, "tag": "b"}), encoding="utf-8")
    assert regress.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "no move"
    data["two_successor"]["s3m2-0/grid"][0] = 4
    b.write_text(regress._text(data), encoding="utf-8")
    assert regress.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("two_successor s3m2-0/grid: [0, ")
