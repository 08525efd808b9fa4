"""BENCH ladder: counts and wall times of riskmdp solves on a fixed, seeded
ladder of models, written to BENCH_<tag>.json.

    python3 bench/ladder.py --tag TAG [--rung NAME ...] [--repeats N]
                            [--out-dir DIR]

Run from anywhere; the script imports riskmdp from the src/ of the checkout
it sits in, and the model generators from its tests/helpers.py.  Each rung
is solved once with game.lp_solve and np.linalg.inv wrapped, for the counts
that do not depend on the machine (LP solves, pivots, basis inversions and
their sizes, restricted-master rounds, lambda_bar), then --repeats times
unwrapped for the wall time of the library call (wall_s: median, quartiles,
min and max), and --repeats times more for the wall time of the same solves
as in-process `riskmdp.cli.main(["solve", ...])` calls on model files
(cli_s: reading the model, its digest, the oracle and certificate blocks
and writing the report included).  Each timed pass runs in its own child
process, after one untimed pass there, so that no one process's fast or
slow state sets every sample.
Counts and pivots depend on the BLAS thread count, which the file records
with the numpy version; set OPENBLAS_NUM_THREADS=1 to compare runs.  One
line per rung goes to stdout.  The bounded benchmark (solvebench/) is
separate and untouched by this script.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from helpers import random_model  # noqa: E402
from riskmdp import cli, game  # noqa: E402

SCHEMA_VERSION = 2
JITTER_SEEDS = range(8)

# name -> (method, description, models); grid rungs run the default sweep
# (n = 2..8, stop_tol 1e-4)
RUNGS = {
    "congen-ring-32": ("congen", "random_model(3, 32, 3)", lambda: [random_model(3, 32, 3)]),
    "congen-ring-128": ("congen", "random_model(3, 128, 3)", lambda: [random_model(3, 128, 3)]),
    "congen-ring-384": ("congen", "random_model(3, 384, 3)", lambda: [random_model(3, 384, 3)]),
    "congen-jitter-16": ("congen", "random_model(seed, 16, 3, kernel_jitter=0.2), seeds 0-7",
                         lambda: [random_model(seed, 16, 3, kernel_jitter=0.2)
                                  for seed in JITTER_SEEDS]),
    "grid-ring-32": ("grid", "random_model(3, 32, 3)", lambda: [random_model(3, 32, 3)]),
    "grid-ring-64": ("grid", "random_model(3, 64, 3)", lambda: [random_model(3, 64, 3)]),
}


def _solve(method: str, model):
    """The rung's solve: (lambda_bar, restricted-master rounds)."""
    if method == "congen":
        sol = game.solve_congen(model)
        return sol.lambda_bar, sol.rounds
    rep = game.solve_sequence(model)
    return rep.lambda_bar, sum(rep.rounds)


def _counted(method: str, models) -> dict:
    """One pass over the models with the LP solver and np.linalg.inv wrapped."""
    pivots, sizes = [], Counter()
    lp_solve, inv = game.lp_solve, np.linalg.inv

    def count_solve(program, **kwargs):
        sol = lp_solve(program, **kwargs)
        pivots.append(sol.iterations)
        return sol

    def count_inv(a):
        sizes[f"{a.shape[0]}x{a.shape[1]}"] += 1
        return inv(a)

    game.lp_solve, np.linalg.inv = count_solve, count_inv
    try:
        results = [_solve(method, model) for model in models]
    finally:
        game.lp_solve, np.linalg.inv = lp_solve, inv
    return {
        "lp_solves": len(pivots),
        "pivots": sum(pivots),
        "inversions": sum(sizes.values()),
        "inverse_sizes": dict(sorted(sizes.items())),
        "rounds": sum(rounds for _, rounds in results),
        "lambda_bar": [lam for lam, _ in results],
    }


def timed_pass(name: str) -> float:
    """Wall seconds of one pass over the rung's models, after an untimed one."""
    method, _, build = RUNGS[name]
    models = build()
    for model in models:
        _solve(method, model)
    start = time.perf_counter()
    for model in models:
        _solve(method, model)
    return time.perf_counter() - start


def timed_cli_pass(name: str) -> float:
    """Wall seconds of one pass of `riskmdp solve` calls, in process, over
    the rung's models written to files, after an untimed one."""
    method, _, build = RUNGS[name]
    with tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as quiet:
        argvs = []
        for k, model in enumerate(build()):
            path = Path(work) / f"model-{k}.json"
            path.write_text(json.dumps({
                "states": list(model.states), "actions": list(model.actions),
                "transitions": {a: model.kernel[u].tolist() for u, a in enumerate(model.actions)},
                "costs": model.cost.tolist()}))
            argvs.append(["solve", "--model", str(path), "--method", method,
                          "--out", str(Path(work) / f"report-{k}.json")])
        with contextlib.redirect_stdout(quiet):
            for argv in argvs:
                cli.main(argv)
            start = time.perf_counter()
            codes = [cli.main(argv) for argv in argvs]
            seconds = time.perf_counter() - start
    if any(codes):
        raise RuntimeError(f"{name}: riskmdp solve exited {codes}")
    return seconds


def _timed(name: str, repeats: int, timer: str = "timed_pass") -> dict:
    """The rung's timer (timed_pass or timed_cli_pass), repeats times, each
    in a new child process."""
    child = (f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
             f"import ladder; print(ladder.{timer}({name!r}))")
    times = [float(subprocess.run([sys.executable, "-c", child], check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(repeats)]
    q1, _, q3 = statistics.quantiles(times, n=4) if repeats > 1 else (times[0],) * 3
    return {"samples": repeats, "median": statistics.median(times), "q1": q1, "q3": q3,
            "min": min(times), "max": max(times)}


def run_rung(name: str, repeats: int) -> dict:
    method, description, build = RUNGS[name]
    models = build()
    return {"name": name, "method": method, "models": description,
            **_counted(method, models), "wall_s": _timed(name, repeats),
            "cli_s": _timed(name, repeats, "timed_cli_pass")}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # unset means the BLAS default, one thread per core
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable); default every rung")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out-dir", default=str(Path(__file__).resolve().parent))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rungs = []
    for name in args.rung or RUNGS:
        rungs.append(run_rung(name, args.repeats))
        r = rungs[-1]
        print(f"{name}: lp_solves {r['lp_solves']}, pivots {r['pivots']}, "
              f"inversions {r['inversions']}, rounds {r['rounds']}, "
              f"wall median {r['wall_s']['median']:.4f} s, "
              f"cli median {r['cli_s']['median']:.4f} s", flush=True)
    path = Path(args.out_dir) / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "tag": args.tag,
                                "environment": environment(), "repeats": args.repeats,
                                "rungs": rungs}, indent=1) + "\n")
    return path


if __name__ == "__main__":
    main()
