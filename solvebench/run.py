"""Solve-and-verify benchmark for riskmdp.

    python3 solvebench/run.py [--workload grid-wide|congen-ring|oracle-small|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded worker process (worker.py).  With --trace 0 the launcher
also starts one set-up-only worker before the measuring worker and one
after it, and reports the median of the three times from process start to
the first timed operation as setup_s.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics; with --workload all, one JSON
object with that result for each workload by name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid-wide", "congen-ring", "oracle-small")
TIMEOUT_S = 170.0        # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker; returns (seconds from start to its "ready" line,
    the stdout lines after it)."""
    # one thread per library, and the same string hashes (so the same dict
    # and set layouts) in every worker
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
    if first.strip() != "ready" or code != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited {code}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setup = []
    if not trace:
        setup.append(spawn([*argv, "--setup-only"], deadline)[0])
    ready, lines = spawn(argv, deadline)
    setup.append(ready)
    if not trace:
        setup.append(spawn([*argv, "--setup-only"], deadline)[0])
    if not lines:
        raise WorkerFailed(f"worker {name} printed no result")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    ops = result["ops"]
    print(f"{name} seed {seed} trace {trace}: "
          + "; ".join(f"{op} {att} attempted, {bad} failed" for op, (att, bad) in ops.items()))
    for key, entry in metrics.items():
        print(f"  {key:28s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": result["correct"],
        "attempted": sum(att for att, _ in ops.values()),
        "failed": sum(bad for _, bad in ops.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskmdp solve-and-verify benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + TIMEOUT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (WorkerFailed, json.JSONDecodeError, KeyError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
