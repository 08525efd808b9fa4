"""Independent reference checks on solve reports.

Nothing here imports riskmdp.  The pure-policy reference is the Perron
root: for a pure policy v, max_i of the per-state growth rates of
E_i[exp(sum of costs)] equals log rho(diag(e^{c_v}) P_v) for any
nonnegative matrix, and numpy.linalg.eigvals gives rho directly.
"""

from __future__ import annotations

import copy
import itertools
import json

import numpy as np

# the LP value and the eigenvalue reference both carry ~1e-9 of roundoff
PURE_TOL = 1e-6
# the game value may sit below the best pure rate when mixing pays; with
# actions that differ by 0.005 in their split the gap stays far below this
CONGEN_GAP_TOL = 1e-4
# entries of the exact worst-case kernel below this count as dropped by the
# grid when screening models (recurrent_worst_case)
SCREEN_FLOOR = 1.0 / 16.0
# the grid value may not step down between resolutions (riskmdp's own
# MONOTONE_TOL, which the solver enforces on itself)
TRACE_TOL = 1e-7
SELF_TEST_SHIFT = 1e-2


def log_perron_roots(kernel: np.ndarray, cost: np.ndarray, choices: np.ndarray) -> np.ndarray:
    """log rho(diag(e^{c_v}) P_v) for each row v of `choices` (pure policies)."""
    states = np.arange(kernel.shape[1])
    p_v = kernel[choices, states[None, :], :]
    scale = np.exp(cost[states[None, :], choices])
    radii = np.abs(np.linalg.eigvals(scale[:, :, None] * p_v)).max(axis=1)
    return np.log(radii)


def pure_minimum(kernel: np.ndarray, cost: np.ndarray) -> float:
    """Minimum of the pure-policy rate over all m^s policies."""
    m, s, _ = kernel.shape
    choices = np.array(list(itertools.product(range(m), repeat=s)), dtype=int)
    return float(log_perron_roots(kernel, cost, choices).min())


def recurrent_worst_case(kernel: np.ndarray, cost: np.ndarray) -> bool:
    """Whether the exact worst-case kernel keeps every state recurrent with
    room to spare for a dyadic grid.

    The worst case against the best pure policy v twists its rows by the
    Perron vector phi of A_v = diag(e^{c_v}) P_v: q_ij = p_ij phi_j / sum_k
    p_ik phi_k.  True when q, with entries below SCREEN_FLOOR dropped, still
    leads from every state to every other.  On every model surveyed that
    held, the grid answer left no state without long-run mass.

    v comes from policy iteration on the Perron root, which needs one
    eigenproblem per step instead of m^s: switch each state to the action
    minimizing (A_u phi)_i.  For irreducible A_v the root never grows
    (Collatz-Wielandt), and when no state can switch, A_u phi >= rho phi
    for every u, so no pure policy has a smaller root.
    """
    m, s, _ = kernel.shape
    states = np.arange(s)
    choice = np.zeros(s, dtype=int)
    weight = np.exp(cost.T)                      # [u, i]
    for _ in range(m * s):
        p_v = kernel[choice, states, :]
        radii, vectors = np.linalg.eig(weight[choice, states][:, None] * p_v)
        phi = np.abs(vectors[:, int(np.argmax(radii.real))].real)
        scores = weight * (kernel @ phi)         # (A_u phi)_i
        better = scores.min(axis=0) < scores[choice, states] * (1.0 - 1e-12)
        if not better.any():
            break
        choice = np.where(better, scores.argmin(axis=0), choice)
    q = p_v * phi[None, :]
    q /= q.sum(axis=1, keepdims=True)
    reach = (q >= SCREEN_FLOOR) | np.eye(len(q), dtype=bool)
    for _ in range(int(np.ceil(np.log2(len(q)))) + 1):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return bool(reach.all())


def policy_rate(kernel: np.ndarray, cost: np.ndarray, doc: dict, policy: dict) -> float:
    """Pure-policy rate of a report's {state: action} map."""
    act = {a: u for u, a in enumerate(doc["actions"])}
    choice = np.array([[act[policy[name]] for name in doc["states"]]], dtype=int)
    return float(log_perron_roots(kernel, cost, choice)[0])


def grid_error(resolution: int) -> float:
    """Bound on how far the grid value may sit below the pure-policy
    minimum: two grid pitches at the final resolution (the worst of 70
    wide-support models at n=5 sat 0.42 pitch below)."""
    return 2.0 ** (1 - resolution)


def solve_violations(report: dict, reference: float) -> list[str]:
    """Properties a solve report must have; returns the ones it breaks.

    `reference` is the pure-policy rate: the brute-force minimum for grid
    reports, the rate of the reported v_star for constraint generation
    (where it bounds the mixed-versus-pure gap from above).
    """
    out = []
    lam = report["lambda_bar"]
    if lam != max(report["phi_star"]):
        out.append("lambda_bar differs from max(phi_star)")
    if lam > reference + PURE_TOL:
        out.append(f"lambda_bar {lam:.9f} exceeds the pure-policy rate {reference:.9f}")
    if report["method"] == "grid":
        trace = np.asarray(report["beta_trace"], dtype=float)
        if lam != float(trace[-1].max()):
            out.append("lambda_bar differs from the last value trace entry")
        if len(trace) > 1 and float((trace[:-1] - trace[1:]).max()) > TRACE_TOL:
            out.append("value trace decreases")
        bound = grid_error(report["resolutions"][-1])
        if reference - lam > bound:
            out.append(f"grid value {lam:.6f} below the pure minimum {reference:.6f} "
                       f"by more than the grid error {bound:g}")
    else:
        if report.get("certified") is not True:
            out.append("constraint generation not certified")
        if reference - lam > CONGEN_GAP_TOL:
            out.append(f"value {lam:.9f} below the v_star rate {reference:.9f} "
                       f"by more than {CONGEN_GAP_TOL:g}")
    return out


def shifted(report: dict) -> dict:
    """The report with its value raised by SELF_TEST_SHIFT everywhere it
    appears, consistently, so only the references can tell."""
    bad = copy.deepcopy(report)
    top = int(np.argmax(bad["phi_star"]))
    bad["lambda_bar"] += SELF_TEST_SHIFT
    bad["phi_star"][top] += SELF_TEST_SHIFT
    if "beta_trace" in bad:
        bad["beta_trace"][-1][top] += SELF_TEST_SHIFT
    return bad


def without_timings(text: str) -> str:
    report = json.loads(text)
    report.pop("timings", None)
    return json.dumps(report, indent=2)
