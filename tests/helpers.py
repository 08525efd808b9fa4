"""Shared test utilities: the seeded model corpus and independent oracles.

The oracles here intentionally re-derive results through routes the library
does not use (basis enumeration for LPs, dense 1-d scans for the analytic
chain, a dense log-space power iteration for the growth-rate oracle) so that
agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from riskmdp.model import MdpModel


def random_model(seed: int, s: int, m: int, kernel_jitter: float = 0.005) -> MdpModel:
    """Random strongly-connected model with two-state supports.

    Every action at a state shares the same two-successor support (so the
    union support stays small and absolute continuity never fails between
    actions), the cycle i -> i+1 is always supported (irreducibility), and
    kernel entries stay within [0.2, 0.8].  Costs are uniform on [0, 1].

    Per-state action kernels differ only by `kernel_jitter`: when actions
    move the chain very differently, a randomized minimizer can undercut
    every pure policy in the game (the per-action divergence penalty is
    mixed linearly, and a mixture of divergences exceeds the divergence from
    the mixture), and the equivalence between the game value and the pure
    control optimum that the corpus checks degrades.  Near-shared kernels
    bound that effect far below the test tolerances while costs still make
    the control problem nontrivial.
    """
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for i in range(s):
        nxt = (i + 1) % s
        others = [j for j in range(s) if j != nxt]
        partner = int(rng.choice(others)) if others else nxt
        lo, hi = sorted({nxt, partner})
        base = rng.uniform(0.25, 0.75)
        for u in range(m):
            if lo == hi:
                kernel[u, i, lo] = 1.0
            else:
                x = base + rng.uniform(-kernel_jitter, kernel_jitter)
                kernel[u, i, lo] = x
                kernel[u, i, hi] = 1.0 - x
    cost = rng.uniform(0.0, 1.0, size=(s, m))
    return MdpModel(
        states=tuple(f"s{i}" for i in range(s)),
        actions=tuple(f"a{u}" for u in range(m)),
        kernel=kernel,
        cost=cost,
    )


# (seed, states, actions): three s=4 instances for the constraint-count check
CORPUS_SPECS = [
    (101, 2, 2), (102, 2, 3), (103, 3, 2), (104, 3, 3), (105, 4, 2),
    (106, 4, 3), (107, 3, 3), (108, 4, 2), (109, 3, 2), (110, 2, 2),
]


def corpus() -> list[tuple[str, MdpModel]]:
    return [(f"corpus-{seed}-s{s}m{m}", random_model(seed, s, m))
            for seed, s, m in CORPUS_SPECS]


def enumerate_lp_optimum(lp):
    """Brute-force LP optimum by basis enumeration on the slack-standard form.

    Handles only default bounds (x >= 0, no upper); returns
    (best objective, best x) or (None, None) when no feasible basis exists.
    """
    assert np.all(lp.lower == 0.0) and np.all(np.isposinf(lp.upper))
    a = lp.dense_matrix()
    m, n = a.shape
    cols = [a]
    slack_cost = []
    for k, rel in enumerate(lp.relations):
        if rel == "==":
            continue
        col = np.zeros((m, 1))
        col[k, 0] = 1.0 if rel == "<=" else -1.0
        cols.append(col)
        slack_cost.append(0.0)
    full = np.hstack(cols)
    costs = np.concatenate([lp.objective, np.array(slack_cost)])
    sign = 1.0 if lp.sense == "min" else -1.0
    best_obj, best_x = None, None
    for basis in itertools.combinations(range(full.shape[1]), m):
        sub = full[:, basis]
        try:
            xb = np.linalg.solve(sub, lp.rhs)
        except np.linalg.LinAlgError:
            continue
        if xb.min(initial=0.0) < -1e-9:
            continue
        obj = sign * float(costs[list(basis)] @ xb)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            x = np.zeros(full.shape[1])
            x[list(basis)] = xb
            best_x = x[:n]
    if best_obj is None:
        return None, None
    return sign * best_obj, best_x


def dense_log_matrices(model: MdpModel, choices) -> np.ndarray:
    """(P, s, s) log matrices c_v(i) + log p_v(j|i) of the pure policies in
    choices (P, s), -inf off each policy's support."""
    choices = np.asarray(choices)
    states = np.arange(model.num_states)[None, :]
    p_v = model.kernel[choices, states, :]
    c_v = model.cost[states, choices]
    with np.errstate(divide="ignore"):
        return c_v[:, :, None] + np.log(p_v)


def dense_log_matvec(logm: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """One multiplication step in log space, batched: (P,s,s) x (P,s)."""
    t = logm + ln[:, None, :]
    mx = t.max(axis=2)
    return mx + np.log(np.exp(t - mx[..., None]).sum(axis=2))


def dense_log_rates(logm: np.ndarray, rate_tol: float, max_iters: int, window: int):
    """Reference power iteration on dense (P, s, s) log matrices.

    The same normalization, damping, window and stopping rule as the
    library's support-column iteration, but with a dense log-sum-exp over
    all s columns and every chain kept in the batch until the last one
    converges.  Returns (P, s) estimates, iteration counts, converged flags.
    """
    p, s, _ = logm.shape
    ln = np.zeros((p, s))
    d_prev = None
    buf = np.zeros((window, p, s))
    buf_count = 0
    est_prev = None
    out = np.zeros((p, s))
    iters = np.zeros(p, dtype=int)
    done = np.zeros(p, dtype=bool)
    log2 = math.log(2.0)
    for step in range(1, max_iters + 1):
        lnew = dense_log_matvec(logm, ln)
        off = lnew.max(axis=1)
        lnew_norm = lnew - off[:, None]
        damped = np.logaddexp(lnew_norm, ln - off[:, None]) - log2
        if d_prev is not None:
            inc = damped - d_prev + off[:, None]
            buf[buf_count % window] = inc
            buf_count += 1
            if buf_count >= window:
                est = buf.mean(axis=0)
                if est_prev is not None:
                    newly = ~done & (np.abs(est - est_prev).max(axis=1) < rate_tol)
                    out[newly] = est[newly]
                    iters[newly] = step
                    done |= newly
                    if done.all():
                        return out, iters, done
                est_prev = est
        d_prev = damped
        ln = lnew_norm
    est = buf.mean(axis=0) if buf_count >= window else np.zeros((p, s))
    out[~done] = est[~done]
    iters[~done] = max_iters
    return out, iters, done


def scan_self_loop_weight(rho: float, step: float = 1e-6) -> float:
    """Dense 1-d scan oracle for the subcritical self-loop weight.

    Maximizes B(q)/(1-q) with B(q) = 1 - q log(q/rho)
    - (1-q) log((1-q)/(1-rho)) on a uniform grid of pitch `step`.
    """
    q = np.arange(step, 1.0, step)
    b = 1.0 - q * np.log(q / rho) - (1.0 - q) * np.log((1.0 - q) / (1.0 - rho))
    return float(q[np.argmax(b / (1.0 - q))])
