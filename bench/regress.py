"""Regression sets: exit codes and digests of riskmdp's reports, of its game
LP solves and of its two-successor solutions, written to REGRESS_<tag>.json.

    python3 bench/regress.py --tag TAG [--out-dir DIR]
    python3 bench/regress.py --compare A.json B.json

Run from anywhere; the script imports riskmdp from the src/ of the checkout
it sits in, the corpus and the two-successor models from its tests/helpers.py,
and the benchmark's workloads, model generators and screen from solvebench/.
A file holds:

  reports        the 69-solve set: the corpus under --method grid and
                 --method congen, the first 8 screened models of each
                 workload at seeds 1 and 7 with that workload's solve flags,
                 and the trap model, each solve followed by a verify (the
                 workload's --tol; the CLI default elsewhere); `oracle` on the
                 corpus in brute-force mode and in policy mode on each
                 corpus solve's v_star; `example` at four values of rho.
                 Each entry holds the argv, the exit code and the sha256 of
                 the report without `timings` and `command` (null when no
                 report was written).
  lp_calls       every game `lp.solve` call of each solve of that set (the
                 `game.lp_solve` seam): status, iterations and a digest of
                 the basis, x and duals.
  two_successor  the models of helpers.two_successor_model, seeds 0-299 of
                 every TWO_SUCCESSOR_SHAPES shape, under the default grid
                 sweep and default constraint generation: [exit code (0, or
                 4 on a solver failure), digest of beta, V, y, q*, v* and w,
                 lp.solve calls, their iterations, digest of those calls].
  environment    as bench/ladder.py records it.

Digests are exact: they hold for one BLAS thread count and one numpy build
(set OPENBLAS_NUM_THREADS=1 to compare runs).  --compare prints every entry
that moved, and the counts of those that did not; it exits 1 on a move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "solvebench"),
                str(ROOT / "bench")]

import numpy as np  # noqa: E402

import models  # noqa: E402
import reference  # noqa: E402
from helpers import TWO_SUCCESSOR_SHAPES, corpus, two_successor_model  # noqa: E402
from ladder import environment  # noqa: E402
from riskmdp import cli, game  # noqa: E402
from riskmdp.lp import LpError  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SCHEMA_VERSION = 1
SECTIONS = ("reports", "lp_calls", "two_successor")
WORKLOAD_SEEDS = (1, 7)
WORKLOAD_MODELS = 8
TWO_SUCCESSOR_SEEDS = 300
EXAMPLE_RHOS = (0.5, 0.8, math.exp(-2.0), 1e-10)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class _LpCalls:
    """game.lp_solve wrapped: each call's [status, iterations, digest]."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        self.original = game.lp_solve

        def record(program, **kwargs):
            sol = self.original(program, **kwargs)
            self.calls.append([sol.status, sol.iterations,
                               _digest(sol.basis, sol.x, sol.duals)])
            return sol

        game.lp_solve = record
        return self

    def __exit__(self, *exc):
        game.lp_solve = self.original

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def _report_digest(path: Path) -> str | None:
    if not path.exists():
        return None
    report = json.loads(path.read_text(encoding="utf-8"))
    kept = {k: v for k, v in report.items() if k not in ("timings", "command")}
    return hashlib.sha256(json.dumps(kept, indent=2).encode("utf-8")).hexdigest()


def _models(corpus_models, workload_models: int) -> list[tuple[str, dict, list, float]]:
    """(name, model document, solve flags, verify --tol) of the solve set."""
    out = []
    for name, model in corpus_models:
        doc = models.to_document(model.kernel, model.cost)
        for method in ("grid", "congen"):
            out.append((f"{name}/{method}", doc, ["--method", method], 1e-3))
    for wl_name, wl in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            found, candidate = 0, 0
            while found < workload_models:
                kernel, cost = models.generate(wl.family, wl.states, wl.actions, seed, candidate)
                candidate += 1
                if wl.screened and not reference.recurrent_worst_case(kernel, cost):
                    continue
                out.append((f"{wl_name}-{seed}-{found}", models.to_document(kernel, cost),
                            list(wl.solve_args), wl.verify_tol))
                found += 1
    out.append(("trap", models.to_document(*models.trap()), [], 1e-3))
    return out


@contextlib.contextmanager
def _inside(path):
    """contextlib.chdir, which Python 3.10 lacks."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _cli_set(corpus_models, workload_models: int) -> tuple[dict, dict]:
    """Run the CLI set in a temporary directory under relative paths, so
    that no report holds a path of this run."""
    reports, lp_calls = {}, {}

    def run(name: str, argv: list[str]) -> None:
        out = name.replace("/", "-") + ".json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        reports[name] = {"argv": argv, "exit": code, "sha256": _report_digest(Path(out))}

    with tempfile.TemporaryDirectory() as work, _inside(work), _LpCalls() as lp:
        for name, doc, flags, tol in _models(corpus_models, workload_models):
            model = name.replace("/", "-") + ".model.json"
            Path(model).write_text(json.dumps(doc), encoding="utf-8")
            run(f"{name}/solve", ["solve", "--model", model, *flags])
            lp_calls[f"{name}/solve"] = lp.take()
            solution = f"{name}/solve".replace("/", "-") + ".json"
            run(f"{name}/verify", ["verify", "--model", model, "--solution", solution,
                                   "--tol", repr(tol)])
            if not name.startswith("corpus-"):
                continue
            if name.endswith("/grid"):
                run(f"{name[:-5]}/oracle", ["oracle", "--model", model])
            if Path(solution).exists():
                policy = f"{name}/policy.json".replace("/", "-")
                v_star = json.loads(Path(solution).read_text(encoding="utf-8"))["v_star"]
                Path(policy).write_text(json.dumps({"policy": v_star}), encoding="utf-8")
                run(f"{name}/oracle-policy", ["oracle", "--model", model, "--policy", policy])
        for rho in EXAMPLE_RHOS:
            run(f"example-{rho!r}", ["example", "--rho", repr(rho)])
    return reports, lp_calls


def _two_successor(seeds: int) -> dict:
    solvers = {"grid": game.solve_sequence, "congen": game.solve_congen}
    out = {}
    with _LpCalls() as lp:
        for s, m in TWO_SUCCESSOR_SHAPES:
            for seed in range(seeds):
                model = two_successor_model(seed, s, m)
                for method, solve in solvers.items():
                    try:
                        result = solve(model)
                    except (LpError, game.MonotonicityError):
                        code, digest = cli.EXIT_SOLVER, None
                    else:
                        sol = getattr(result, "final", result)
                        code, digest = cli.EXIT_OK, _digest(
                            sol.value, sol.potentials, sol.minimizer.rows,
                            sol.maximizer.entries, np.array(sol.minimizer_pure.choice),
                            sol.dual_w)
                    calls = lp.take()
                    out[f"s{s}m{m}-{seed}/{method}"] = [
                        code, digest, len(calls), sum(c[1] for c in calls),
                        hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:16]]
    return out


def collect(tag: str, corpus_models=None, workload_models: int = WORKLOAD_MODELS,
            two_successor_seeds: int = TWO_SUCCESSOR_SEEDS) -> dict:
    """The regression sets; the defaults make the full file."""
    reports, lp_calls = _cli_set(corpus() if corpus_models is None else corpus_models,
                                 workload_models)
    return {"schema_version": SCHEMA_VERSION, "tag": tag, "environment": environment(),
            "reports": reports, "lp_calls": lp_calls,
            "two_successor": _two_successor(two_successor_seeds)}


def summary(data: dict) -> list[str]:
    """Counts by exit code and of lp.solve calls, one line each."""
    kinds = {}
    for name, r in data["reports"].items():
        kind = name.rsplit("/", 1)[-1] if "/" in name else "example"
        kinds.setdefault(kind, Counter())[r["exit"]] += 1
    lines = [f"{kind}: {sum(codes.values())} by exit code {dict(sorted(codes.items()))}"
             for kind, codes in kinds.items()]
    lp_calls = data["lp_calls"].values()
    lines.append(f"lp.solve calls of the solves: {sum(map(len, lp_calls))}, "
                 f"{sum(c[1] for calls in lp_calls for c in calls)} iterations")
    for method in ("grid", "congen"):
        runs = [r for k, r in data["two_successor"].items() if k.endswith("/" + method)]
        codes = Counter(r[0] for r in runs)
        lines.append(f"two-successor {method}: {len(runs)} by exit code "
                     f"{dict(sorted(codes.items()))}, {sum(r[2] for r in runs)} lp.solve calls")
    return lines


def _text(data: dict) -> str:
    """JSON with one entry of each section per line."""
    parts = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data.items() if k not in SECTIONS]
    for key in SECTIONS:
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data[key].items())
        parts.append(f"{json.dumps(key)}: {{\n{body}\n }}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def compare(a: dict, b: dict) -> list[str]:
    """One line per entry that moved, was added or went missing."""
    moves = []
    for key in SECTIONS:
        for name in sorted(set(a[key]) | set(b[key])):
            old, new = a[key].get(name), b[key].get(name)
            if old != new:
                moves.append(f"{key} {name}: {json.dumps(old)} -> {json.dumps(new)}")
    return moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--tag")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out-dir", default=str(Path(__file__).resolve().parent))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        if a["environment"] != b["environment"]:
            print(f"environment: {json.dumps(a['environment'])} -> "
                  f"{json.dumps(b['environment'])}")
        moves = compare(a, b)
        print("\n".join(moves) if moves else "no move")
        for line in summary(b):
            print(line)
        return 1 if moves else 0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"riskmdp imported from {cli.__file__}, not from {ROOT / 'src'}")
    data = collect(args.tag)
    path = Path(args.out_dir) / f"REGRESS_{args.tag}.json"
    path.write_text(_text(data), encoding="utf-8")
    print("\n".join([str(path), *summary(data)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
