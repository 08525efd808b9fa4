"""One benchmark workload in one fresh single-threaded process.

Set-up (import riskmdp from the checkout's src/, generate and write the
models, one untimed warm-up solve, one untimed solve of the fixed trap model)
ends with a "ready" line on stdout; the launcher times process start to that
line.  Then, unless --setup-only:

  measure mode (--trace 0): whole rounds of in-process `riskmdp.cli.main`
  calls until --seconds is used up;
  trace mode (--trace 1): the same rounds over a few models, once untraced
  and once through the wrappers of tracing.py.

A round solves one seeded model, verifies its report VERIFIES_PER_ROUND
times, and verifies the trap model's report once, which fails every time
(models.trap).  So `failed` is 1/(VERIFIES_PER_ROUND + 2) of `attempted` in
every run, and any failure beyond that share is a seeded operation that
failed.  Verifies run inside the rounds rather than in a phase of their own
so that they sample the same stretch of time as the solves: a shared 2-vCPU
virtual machine was seen to switch between a fast state and one 1.6x slower
for 5-20 s at a time, so a phase of a few seconds lands in one state or the
other.  For the same reason the solve time is reported as a mean: a run's
mean moves with the share of it spent slow, its median jumps between the
states.  A verify call takes a few milliseconds of interpreter-bound work,
which the same machine ran anywhere between 2.7 and 4.8 ms from one round
to the next; each verify is therefore preceded by one call of a fixed
yardstick operation (Yardstick), and the verify metric is the median over
rounds of the verify time divided by the yardstick time of the same round.

Every solve report is then checked against the references of reference.py,
and the run's result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import models
import reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WARMUP_SEED = 0          # the warm-up model is the same in every run
VERIFIES_PER_ROUND = 30
MODELS = 48              # generated per run; the rounds cycle through them
TRACE_MODELS = 8         # solved and verified per trace pass


@dataclass(frozen=True)
class Workload:
    family: str
    states: int
    actions: int
    solve_args: tuple[str, ...]
    verify_tol: float
    warmup_states: int
    screened: bool          # keep only models that pass reference.recurrent_worst_case


WORKLOADS = {
    "grid-wide": Workload(
        family="wide", states=6, actions=2,
        solve_args=("--method", "grid", "--n-max", "5"),
        verify_tol=0.1, warmup_states=4, screened=True),
    "congen-ring": Workload(
        family="ring", states=32, actions=3,
        solve_args=("--method", "congen"),
        verify_tol=1e-3, warmup_states=16, screened=False),
    "oracle-small": Workload(
        family="lazy-ring", states=10, actions=2,
        solve_args=(),
        verify_tol=1e-2, warmup_states=6, screened=True),
}


class Yardstick:
    """A fixed operation of the same make as a verify call, with no riskmdp code.

    It builds an argparse parser with ten options and parses one argument
    list, round-trips a small JSON document, and walks a 2 x 8 x 8 array row
    by row with numpy reductions read back as floats: the interpreter-bound
    mix a `verify` call spends its time in.  Timed next to each verify, it
    measures how fast the machine runs that kind of code at that moment, and
    it does not change when riskmdp does.
    """

    def __init__(self):
        self.array = np.random.default_rng(0).uniform(size=(2, 8, 8))
        self.doc = {"name": "yardstick", "rows": self.array[0].tolist()}

    def time(self) -> float:
        start = time.perf_counter()
        parser = argparse.ArgumentParser(prog="yardstick")
        for i in range(10):
            parser.add_argument(f"--option-{i}", type=float, default=1.0)
        parser.parse_args(["--option-1", "2.0", "--option-7", "0.5"])
        json.loads(json.dumps(self.doc, sort_keys=True))
        total = 0.0
        for rows in self.array:
            for row in rows:
                total += float(np.max(row * np.exp(row))) + float(row.sum())
        return time.perf_counter() - start


class Operations:
    """The models of one run and the CLI calls on them."""

    def __init__(self, cli, workload: Workload, work: Path, seed: int, quiet):
        self.cli = cli
        self.quiet = quiet          # the CLI's stdout and stderr lines go here
        self.workload = workload
        self.work = work
        self.arrays = []
        self.yardstick = Yardstick()
        self.trap_model = str(work / "trap-model.json")
        self.trap_report = str(work / "trap-report.json")
        models.write_model(self.trap_model, *models.trap())
        candidate = 0
        while len(self.arrays) < MODELS:
            kernel, cost = models.generate(workload.family, workload.states,
                                           workload.actions, seed, candidate)
            candidate += 1
            if workload.screened and not reference.recurrent_worst_case(kernel, cost):
                continue
            models.write_model(self.model(len(self.arrays)), kernel, cost)
            self.arrays.append((kernel, cost))

    def model(self, k) -> str:
        return str(self.work / f"model-{k}.json")

    def report(self, k) -> str:
        return str(self.work / f"report-{k}.json")

    def call(self, argv: list[str]) -> tuple[int, float]:
        with contextlib.redirect_stdout(self.quiet), contextlib.redirect_stderr(self.quiet):
            start = time.perf_counter()
            code = self.cli.main(argv)
            return code, time.perf_counter() - start

    def solve_argv(self, model: str, out: str) -> list[str]:
        return ["solve", "--model", model, "--out", out, *self.workload.solve_args]

    def solve(self, k) -> tuple[int, float]:
        return self.call(self.solve_argv(self.model(k), self.report(k)))

    def verify(self, k) -> tuple[int, float]:
        return self.verify_report(self.model(k), self.report(k))

    def verify_report(self, model: str, report: str) -> tuple[int, float]:
        out = str(self.work / "verify.json")
        code, seconds = self.call(["verify", "--model", model, "--solution", report,
                                   "--tol", repr(self.workload.verify_tol), "--out", out])
        if code == 0 and not json.loads(Path(out).read_text(encoding="utf-8"))["passed"]:
            code = -1
        return code, seconds

    def round(self, k) -> dict:
        """Solve model k, verify its report, verify the trap report.

        Returns the solve's (code, seconds), the (code, seconds) of each
        verify of model k, the seconds of the yardstick call before each of
        those verifies, and the trap verify's code.
        """
        solve = self.solve(k)
        verifies, yardsticks = [], []
        if solve[0] == 0:
            for _ in range(VERIFIES_PER_ROUND):
                yardsticks.append(self.yardstick.time())
                verifies.append(self.verify(k))
        trap_code, _ = self.verify_report(self.trap_model, self.trap_report)
        return {"solve": solve, "verify": verifies, "yardstick": yardsticks,
                "trap": trap_code}

    def warm_up(self) -> None:
        wl = self.workload
        kernel, cost = models.generate(wl.family, wl.warmup_states, wl.actions, WARMUP_SEED, 0)
        path = str(self.work / "warmup-model.json")
        models.write_model(path, kernel, cost)
        code, _ = self.call(self.solve_argv(path, str(self.work / "warmup-report.json")))
        if code != 0:
            raise RuntimeError(f"warm-up solve exited {code}")
        # the trap report comes from a default solve in every workload
        code, _ = self.call(["solve", "--model", self.trap_model, "--out", self.trap_report])
        if code != 0:
            raise RuntimeError(f"trap model solve exited {code}")

    def read_report(self, k) -> tuple[str, dict]:
        text = Path(self.report(k)).read_text(encoding="utf-8")
        return text, json.loads(text)

    def check(self, k) -> tuple[list[str], float, dict]:
        """(violations, pure-policy reference, report) for model k."""
        kernel, cost = self.arrays[k]
        _, report = self.read_report(k)
        if report["method"] == "congen":
            doc = json.loads(Path(self.model(k)).read_text(encoding="utf-8"))
            ref = reference.policy_rate(kernel, cost, doc, report["v_star"])
        else:
            ref = reference.pure_minimum(kernel, cost)
        return reference.solve_violations(report, ref), ref, report


def check_reports(ops: Operations, solved: list[int], problems: list[str]) -> set[int]:
    """Check every solved model; returns the models whose report fails.

    Also feeds the checker a report with its value raised by 1e-2 (the
    report it can judge most sharply: smallest gap to its reference) and
    records a problem unless that report is rejected.
    """
    bad = set()
    sharpest = None
    for k in solved:
        violations, ref, report = ops.check(k)
        if violations:
            bad.add(k)
            problems.extend(f"model {k}: {v}" for v in violations)
            continue
        gap = ref - report["lambda_bar"]
        if sharpest is None or gap < sharpest[0]:
            sharpest = (gap, ref, report)
    if sharpest is not None:
        _, ref, report = sharpest
        if not reference.solve_violations(reference.shifted(report), ref):
            problems.append("checker accepted a value raised by 1e-2")
    return bad


class Tally:
    """Codes and seconds of every operation of a run, by kind."""

    def __init__(self):
        self.codes = {"solve": [], "verify": [], "trap verify": []}
        self.seconds = {"solve": []}
        self.verify_rel = []            # per round: median verify / median yardstick
        self.solved = {}                # model -> its solve codes

    def add(self, k, result: dict) -> None:
        code, seconds = result["solve"]
        self.solved.setdefault(k, []).append(code)
        self.codes["solve"].append(code)
        self.seconds["solve"].append(seconds)
        for code, _ in result["verify"]:
            self.codes["verify"].append(code)
        if result["verify"]:
            self.verify_rel.append(statistics.median(s for _, s in result["verify"])
                                   / statistics.median(result["yardstick"]))
        self.codes["trap verify"].append(result["trap"])

    def models_solved(self) -> list[int]:
        return [k for k, codes in self.solved.items() if all(c == 0 for c in codes)]

    def counts(self, bad: set[int]) -> dict:
        """(attempted, failed) by kind; every solve of a model in `bad`, whose
        report failed a reference check, counts as failed."""
        out = {kind: (len(codes), sum(c != 0 for c in codes))
               for kind, codes in self.codes.items()}
        attempted, failed = out["solve"]
        out["solve"] = (attempted, failed + sum(len(self.solved[k]) for k in bad))
        return out


def measure(ops: Operations, seconds: float, problems: list[str]) -> tuple[dict, dict]:
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        k = len(tally.codes["solve"]) % MODELS
        tally.add(k, ops.round(k))
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    solved = tally.models_solved()
    counts = tally.counts(check_reports(ops, solved, problems))
    # the same call again must give the same report, timings aside
    if solved:
        k = solved[0]
        first, _ = ops.read_report(k)
        code, _ = ops.solve(k)
        second, _ = ops.read_report(k)
        if code != 0 or reference.without_timings(first) != reference.without_timings(second):
            problems.append(f"model {k}: a second solve gave a different report")
    solves, failed = counts["solve"]
    metrics = {
        "solve_s_mean": (statistics.fmean(tally.seconds["solve"]), "s"),
        "solves_per_s": ((solves - failed) / wall, "1/s"),
        "verify_rel_p50": (statistics.median(tally.verify_rel) if tally.verify_rel else 0.0,
                           "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, counts


def trace(ops: Operations, out: Path, problems: list[str]) -> tuple[dict, dict]:
    from riskmdp import certify, game, lp, oracle

    tally = Tally()

    def one_pass():
        reports = []
        start = time.perf_counter()
        for k in range(TRACE_MODELS):
            result = ops.round(k)
            tally.add(k, result)
            reports.append(ops.read_report(k)[0] if result["solve"][0] == 0 else None)
        return time.perf_counter() - start, reports

    untraced_s, untraced_reports = one_pass()
    tracer = Tracer()
    tracer.install(ops.cli, game, lp, oracle, certify)
    tracer.wrap(ops, "call", "cli")      # every CLI call is a root span
    traced_s, traced_reports = one_pass()
    tracer.dump(out)

    for k, (first, second) in enumerate(zip(untraced_reports, traced_reports)):
        if first and second and reference.without_timings(first) != reference.without_timings(second):
            problems.append(f"model {k}: a second solve gave a different report")
    counts = tally.counts(check_reports(ops, tally.models_solved(), problems))
    return tracer.layer_metrics(traced_s - untraced_s), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from riskmdp import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import riskmdp from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"riskmdp imported from {cli.__file__}, not from {src}")

    out_dir = ROOT / ".solvebench"
    work = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with open(os.devnull, "w", encoding="utf-8") as quiet:
            ops = Operations(cli, WORKLOADS[args.workload], work, args.seed, quiet)
            ops.warm_up()
            print("ready", flush=True)
            if args.setup_only:
                return 0
            problems: list[str] = []
            if args.trace:
                trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
                metrics, counts = trace(ops, trace_file, problems)
            else:
                metrics, counts = measure(ops, args.seconds, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "ops": counts,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
