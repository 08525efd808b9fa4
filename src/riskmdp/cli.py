"""Command-line entry point.

Subcommands:
  solve    solve a model by the grid sweep or constraint generation
  oracle   brute-force value / per-policy growth rates
  verify   re-check a solve report against the dynamic-programming equations
  example  closed forms and diagnostics for the built-in two-state chain

Reports are JSON with a fixed key order so byte-level diffs are meaningful;
only the "timings" block varies between identical runs.  Exit codes:
0 success, 2 model error (or an unreadable input file or unwritable --out),
3 guard violation, 4 solver failure, 5 verification residual above tolerance.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from . import certify, game, oracle
from .errors import GuardError, ModelError
from .lp import LpError
from .model import MdpModel, StationaryPolicy, number_array, parse_model, read_json

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_GUARD = 3
EXIT_SOLVER = 4
EXIT_RESIDUAL = 5

REPORT_VERSION = 7
TOLERANCES = {"solve": ("stop_tol", "inner_tol"), "verify": ("tol",)}


def canonical_json(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte on string
    keys, but each list of floats is written in one join."""
    return _encode(obj, "\n")


def _encode(obj, nl: str) -> str:
    # nl is a newline and obj's indentation; the checks run in json's order
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _floats((obj,), "")
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [f"{_escape(k)}: {_encode(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if all(issubclass(t, float) for t in set(map(type, obj))):   # [] too
        return "[" + inner + _floats(obj, "," + inner) + nl + "]" if obj else "[]"
    items = [_encode(x, inner) for x in obj]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _floats(xs, sep: str) -> str:
    if not all(map(math.isfinite, xs)):
        raise ValueError("Out of range float values are not JSON compliant")
    return sep.join(map(float.__repr__, xs))


def model_digest(model: MdpModel) -> str:
    """sha256 of the validated model: its state and action names, then its
    kernel and its cost as little-endian doubles, so a file's whitespace,
    key order and number spelling (1 or 1.0) do not change it."""
    h = hashlib.sha256(json.dumps([model.states, model.actions]).encode("utf-8"))
    for a in (model.kernel, model.cost):
        h.update(a.astype("<f8", copy=False))
    return h.hexdigest()


def load_policy(path: str, model: MdpModel) -> StationaryPolicy:
    """Read a policy file: {"policy": {state: action}} for pure policies or
    {"policy": {state: {action: weight}}} for randomized ones."""
    raw = read_json(path, "policy file")
    table = raw.get("policy") if isinstance(raw, dict) else None
    if not isinstance(table, dict):
        raise ModelError("policy file must contain a 'policy' object")
    for state in table:
        if state not in model.states:
            raise ModelError(f"policy file names state {state!r}, which the model lacks")
    act_index = {a: u for u, a in enumerate(model.actions)}
    rows = np.zeros((model.num_states, model.num_actions))
    for i, state in enumerate(model.states):
        if state not in table:
            raise ModelError(f"policy file misses state {state!r}")
        entry = table[state]
        if isinstance(entry, str):   # a pure entry is the action at weight 1
            entry = {entry: 1.0}
        if not isinstance(entry, dict):
            raise ModelError(f"policy entry for state {state!r} must be an action "
                             "name or an action->weight object")
        for a, wgt in entry.items():
            if a not in act_index:
                raise ModelError(f"unknown action {a!r} at state {state!r}")
            if type(wgt) not in (int, float):   # a JSON number, not true
                raise ModelError(f"weight {wgt!r} of {a!r} at state {state!r} "
                                 "is not a number")
            try:
                rows[i, act_index[a]] = wgt
            except OverflowError as exc:   # an int past the double range
                raise ModelError(f"weight of {a!r} at state {state!r}: {exc}") from exc
    return StationaryPolicy(rows)


def _list(a) -> list:
    """A vector or matrix as (nested) lists of Python floats."""
    return np.asarray(a, dtype=float).tolist()


def _policy_map(model: MdpModel, pure) -> dict:
    return {model.states[i]: model.actions[u] for i, u in enumerate(pure.choice)}


def _brute_force(model: MdpModel) -> dict:
    bf = oracle.brute_force_lambda_star(model)
    return {
        "value": bf.value,
        "bracket": list(bf.bracket),
        "per_state": _list(bf.per_state),
        "argmin": _policy_map(model, bf.argmin),
        "converged": bf.converged,
    }


def _oracle_block(model: MdpModel, lambda_solve: float):
    try:
        block = _brute_force(model)
    except GuardError:
        return None
    block["gap"] = abs(lambda_solve - block["value"])
    return block


def _certificate_block(model: MdpModel, phi, v):
    cert = certify.build_certificate(model, phi, v)
    return cert, {
        "levels": [[model.states[i] for i in lvl] for lvl in cert.partition.levels],
        "level_values": _list(cert.partition.values),
        "residual_dp1": _list(cert.residual_dp1),
        "residual_dp2": _list(cert.residual_dp2),
        "twisted_eigen": _list(cert.twisted_eigen),
        "twisted_averaging": _list(cert.twisted_averaging),
    }


def _normalized_potentials(phi, v) -> np.ndarray:
    """Shift potentials so each level's minimum is 0; the certification
    residuals are invariant under per-level shifts, so this only makes
    reports comparable across runs and gauge choices."""
    try:
        partition = certify.build_partition(phi)
    except certify.CertificationError:
        return np.asarray(v, dtype=float)
    out = np.asarray(v, dtype=float).copy()
    for members in partition.levels:
        out[list(members)] -= out[list(members)].min()
    return out


def _solution_block(model: MdpModel, sol: game.GameSolution) -> dict:
    return {
        "phi_star": _list(sol.value),
        "potentials": _list(_normalized_potentials(sol.value, sol.potentials)),
        "q_star": _list(sol.maximizer.entries),
        "v_star": _policy_map(model, sol.minimizer_pure),
        "minimizer": _list(sol.minimizer.rows),
        "dual_w": _list(sol.dual_w),
        "duality_gap": sol.duality_gap,
        "num_constraints": sol.num_constraints,
    }


def cmd_solve(args, model: MdpModel, _digest: str) -> tuple[dict, int]:
    timings = {}
    t0 = time.perf_counter()
    if args.method == "grid":
        rep = game.solve_sequence(model, args.n_start, args.n_max, args.stop_tol)
        sol = rep.final
        method_block = {
            "resolutions": list(rep.resolutions),
            "rounds": list(rep.rounds),
            "beta_trace": [_list(b) for b in rep.beta_trace],
            "stopping_reason": rep.stopping_reason,
            "feasibility_violation": rep.feasibility_violation,
        }
    else:
        sol = game.solve_congen(model, args.inner_tol, args.max_rounds)
        method_block = {
            "rounds": sol.rounds,
            "certified": sol.certified,
            "inner_tol": args.inner_tol,
        }
    timings["solve"] = time.perf_counter() - t0
    lambda_bar = sol.lambda_bar

    t0 = time.perf_counter()
    oracle_block = _oracle_block(model, lambda_bar)
    timings["oracle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        _, cert_block = _certificate_block(model, sol.value, sol.potentials)
    except certify.CertificationError as exc:
        cert_block = {"error": str(exc)}
    timings["certify"] = time.perf_counter() - t0

    body = {
        "method": args.method,
        **method_block,
        "lambda_bar": lambda_bar,
        **_solution_block(model, sol),
        "oracle": oracle_block,
        "certificate": cert_block,
        "timings": timings,
    }
    print(f"lambda_bar = {lambda_bar:.6f}")
    print("v* :", ", ".join(f"{s} -> {a}" for s, a in
                            _policy_map(model, sol.minimizer_pure).items()))
    return body, EXIT_OK


def cmd_oracle(args, model: MdpModel, _digest: str) -> tuple[dict, int]:
    timings = {}
    t0 = time.perf_counter()
    if args.policy:
        policy = load_policy(args.policy, model)
        rates = oracle.growth_rate(model, policy)
        body = {
            "mode": "policy",
            "policy_file": args.policy,
            "per_state": _list(rates.lam),
            "lambda_max": rates.lambda_max,
            "iterations": rates.iterations,
            "converged": rates.converged,
        }
        print(f"lambda_max = {rates.lambda_max:.6f}")
    else:
        body = {"mode": "brute_force", **_brute_force(model)}
        print(f"lambda_bar = {body['value']:.6f}")
        print("argmin :", ", ".join(f"{s} -> {a}" for s, a in body["argmin"].items()))
    timings["oracle"] = time.perf_counter() - t0
    return {**body, "timings": timings}, EXIT_OK


def cmd_verify(args, model: MdpModel, digest: str) -> tuple[dict, int]:
    solution = read_json(args.solution, "solution report")
    try:
        phi = number_array(solution["phi_star"], (model.num_states,), "phi_star")
        v = number_array(solution["potentials"], (model.num_states,), "potentials")
        if not (np.isfinite(phi).all() and np.isfinite(v).all()):
            raise ValueError("phi_star and potentials must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"cannot read solution report {args.solution}: {exc}") from exc
    # recorded, not checked: verify certifies the given values against the given model
    head = {"model_digest_matches": solution.get("model_digest") == digest,
            "tolerance": args.tol}
    t0 = time.perf_counter()
    try:
        cert, cert_block = _certificate_block(model, phi, v)
    except certify.CertificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return {**head, "passed": False, "error": str(exc)}, EXIT_RESIDUAL
    elapsed = time.perf_counter() - t0
    # the first check with the largest residual, at its first state
    worst_name, arr = max(cert.checks().items(), key=lambda item: item[1].max())
    worst_state, worst_val = int(np.argmax(arr)), float(arr.max())
    passed = worst_val <= args.tol
    body = {
        **head,
        "passed": passed,
        "worst": {"check": worst_name, "state": model.states[worst_state],
                  "residual": worst_val},
        **cert_block,
        "timings": {"certify": elapsed},
    }
    if passed:
        print(f"OK: worst residual {worst_val:.3e} ({worst_name}) within {args.tol:g}")
    else:
        print(f"FAIL: {worst_name} residual {worst_val:.3e} at state "
              f"{model.states[worst_state]} exceeds {args.tol:g}", file=sys.stderr)
    return body, EXIT_OK if passed else EXIT_RESIDUAL


def cmd_example(args, *_) -> tuple[dict, int]:
    ana = certify.analytic_example(args.rho)
    model = certify.two_state_model(args.rho)
    poisson_block = None
    if ana.supercritical:
        scan = certify.poisson_insolvability(args.rho)
        poisson_block = {
            "satisfying_pairs": scan.satisfying_pairs,
            "total_pairs": scan.total_pairs,
            "insolvable": scan.satisfying_pairs == 0 and scan.reduction_impossible,
        }
    t0 = time.perf_counter()
    rep = game.solve_sequence(model)
    elapsed = time.perf_counter() - t0
    gap = abs(rep.lambda_bar - ana.lambda_bar)
    body = {
        "rho": args.rho,
        "supercritical": ana.supercritical,
        "phi_star": _list(ana.phi_star),
        "q22": ana.q22,
        "lambda_bar": ana.lambda_bar,
        "poisson": poisson_block,
        "lp_lambda_bar": rep.lambda_bar,
        "lp_q22": float(rep.final.maximizer.entries[1, 1]),
        "lp_gap": gap,
        "timings": {"solve": elapsed},
    }
    print(f"lambda_bar = {ana.lambda_bar:.6f}  (q22 = {ana.q22:.6f})")
    if poisson_block is not None:
        print("poisson_insolvable =", str(poisson_block["insolvable"]).lower())
    print(f"lp solve gap = {gap:.3e}")
    return body, EXIT_OK


def _emit(report: dict, out: str | None) -> None:
    text = canonical_json(report)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ModelError(f"cannot write report {out}: {exc}") from exc
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskmdp",
        description="Risk-sensitive cost minimization on finite controlled "
                    "Markov chains via single-controller ergodic-game LPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model and write a report")
    p.add_argument("--model", required=True)
    p.add_argument("--n-start", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--stop-tol", type=float, default=1e-4)
    p.add_argument("--method", choices=("grid", "congen"), default="grid")
    p.add_argument("--inner-tol", type=float, default=1e-6)
    p.add_argument("--max-rounds", type=int, default=50)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force value or per-policy rates")
    p.add_argument("--model", required=True)
    p.add_argument("--policy")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="re-check a solve report")
    p.add_argument("--model", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="built-in two-state chain diagnostics")
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_example)
    for p in sub.choices.values():   # every command writes its report to --out
        p.add_argument("--out")
    return parser


# one parser per process (parse_args leaves it unchanged); cmd_* are bound
# when it is built, so patching cli.cmd_* after the first main call does nothing
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and not 0 <= args.n_start <= args.n_max:
        parser.error("solve: need 0 <= --n-start <= --n-max")
    if args.command == "solve" and args.max_rounds < 1:
        parser.error("solve: --max-rounds must be at least 1")
    for name in TOLERANCES.get(args.command, ()):
        if not 0.0 <= getattr(args, name) < math.inf:
            parser.error(f"{args.command}: --{name.replace('_', '-')} must be finite and >= 0")
    try:
        # every report starts with these keys, model_digest on a model file;
        # each cmd_*(args, model, digest) returns (body, exit code)
        header, model = {"report_version": REPORT_VERSION, "command": ["riskmdp"] + argv}, None
        if hasattr(args, "model"):
            model = parse_model(read_json(args.model, "model file"))
            header["model_digest"] = model_digest(model)
        body, code = args.func(args, model, header.get("model_digest"))
        _emit({**header, **body}, args.out)
        return code
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (LpError, game.MonotonicityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
