"""Independent ground-truth computations for the game pipeline.

Everything here is deliberately separate from the LP machinery: per-policy
growth rates via log-space power iteration on the exponentiated-cost matrix,
brute-force minimization over all pure policies, Cesaro limit matrices from
the communicating-class structure, and the ergodic game payoff evaluated
through invariant measures.  The LP solutions are verified against these.

The power iteration stores each policy's log matrix only on the model's
union-support columns (k per state, k the largest support size), so one
step is k elementwise passes summed left to right in slot order, and a
batch of policies sheds its converged members as it goes.  Growth rates of
a single policy and the brute-force scan share that one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ModelError
from .extreal import NEG_INF, weighted_sum
from .model import KernelMatrix, MdpModel, PurePolicy, StationaryPolicy, apply_policy

ENUMERATION_GUARD = 10**6
BLOCK_ENTRIES = 2**22    # stored entries per brute-force batch (32 MB of float64)
RATE_TOL = 1e-10
MAX_POWER_ITERS = 100_000
RATE_WINDOW = 32


class DegenerateChainError(RuntimeError):
    """A numerically degenerate recurrent class (singular invariant system)."""


@dataclass(frozen=True)
class GrowthRates:
    """Per-state growth rates of E[exp(cumulative cost)] under one policy."""

    lam: np.ndarray
    lambda_max: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class PayoffVector:
    """Per-state ergodic payoffs of the game chain; -inf marks an absolute
    continuity failure at a state with positive Cesaro weight."""

    phi: np.ndarray
    phi_max: float


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    argmin: PurePolicy
    per_state: np.ndarray
    converged: bool


def kl_divergence(qrow, prow) -> float:
    """Kullback-Leibler divergence sum_j q_j log(q_j / p_j).

    Terms with q_j = 0 contribute 0; any q_j > 0 where p_j = 0 gives +inf.
    """
    q = np.asarray(qrow, dtype=float)
    p = np.asarray(prow, dtype=float)
    mask = q > 0.0
    if np.any(p[mask] == 0.0):
        return math.inf
    return float(np.sum(q[mask] * np.log(q[mask] / p[mask])))


def tilde_cost(model: MdpModel, i: int, qrow, u: int) -> float:
    """KL-penalized running reward c(i,u) - D(q(.|i) || p(.|i,u)).

    Returns -inf when the chosen row is not absolutely continuous with
    respect to p(.|i,u).  Rows with mass outside the union support are not
    in the maximizer's strategy class and are rejected outright.
    """
    q = np.asarray(qrow, dtype=float)
    if np.any(q[~model.support[i]] > 0.0):
        raise ModelError(f"row at state {i} has mass outside the union support")
    div = kl_divergence(q, model.kernel[u, i])
    if math.isinf(div):
        return NEG_INF
    return float(model.cost[i, u]) - div


def _support_columns(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, pad) for an (s, s) support mask.

    cols is an (s, k) index array that lists each state's support in
    ascending order, k being the largest support size; shorter rows repeat
    their last column, and pad marks those repeated slots.
    """
    s = support.shape[0]
    sizes = support.sum(axis=1)
    k = int(sizes.max())
    order = np.argsort(~support, axis=1, kind="stable")[:, :k]
    pad = np.arange(k)[None, :] >= sizes[:, None]
    cols = np.where(pad, order[np.arange(s), sizes - 1][:, None], order)
    return cols, pad


def _log_entries(cost: np.ndarray, prob: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Log matrix entries c(i) + log p(cols[i, c] | i) as a (k, s, P) array,
    from per-chain costs (s, P) and probabilities gathered on the support
    columns (k, s, P); padded slots are -inf."""
    with np.errstate(divide="ignore"):
        logc = cost[None] + np.log(prob)
    np.copyto(logc, NEG_INF, where=pad.T[:, :, None])
    return logc


def _pure_log_entries(model: MdpModel, choices: np.ndarray, cols: np.ndarray,
                      pad: np.ndarray) -> np.ndarray:
    """(k, s, P) log entries of the pure policies in choices (P, s), gathered
    straight from the kernel on the support columns."""
    states = np.arange(model.num_states)
    prob = model.kernel[choices.T[None], states[None, :, None], cols.T[:, :, None]]
    return _log_entries(model.cost[states[:, None], choices.T], prob, pad)


def _support_matvec(logc: np.ndarray, cols: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """One multiplication step in log space on the support columns, batched:
    entry (i, p) is log sum_c exp(logc[c, i, p] + ln[cols[i, c], p]), shifted
    by the slot maximum and summed left to right in slot order."""
    terms = [logc[c] + ln[cols[:, c]] for c in range(cols.shape[1])]
    mx = terms[0]
    for t in terms[1:]:
        mx = np.maximum(mx, t)
    total = np.exp(terms[0] - mx)
    for t in terms[1:]:
        total += np.exp(t - mx)
    return mx + np.log(total)


def _batched_log_rates(logc: np.ndarray, cols: np.ndarray, rate_tol: float,
                       max_iters: int, window: int):
    """Growth-rate estimates for a batch of chains by log-space power iteration.

    Each chain's log matrix is stored only on the union-support columns, state
    major: logc[c, i, p] is the log entry of chain p at (i, cols[i, c]), -inf
    on padded slots, so a step costs k elementwise passes instead of a dense
    (P, s, s) reduction, and padded slots add exactly 0.  Keeps iterates
    normalized (running max subtracted) so all arithmetic stays O(1), and
    damps with the average of two consecutive iterates so period-2 structure
    cannot make the per-step estimate oscillate.  The estimate is the damped
    per-step increment averaged over a sliding window; a chain converges when
    successive estimates differ by less than rate_tol.  Converged chains are
    written out, and once they make up half the batch it is compacted to the
    rest (compacting at every convergence step copies the window more often
    than it saves).  Every operation acts per chain, so a chain's result does
    not depend on which others share its batch.  Returns (P, s) estimates,
    per-chain iteration counts and converged flags.
    """
    _, s, p = logc.shape
    live = np.arange(p)
    ln = np.zeros((s, p))
    d_prev = None
    buf = np.zeros((window, s, p))
    buf_count = 0
    est_prev = None
    out = np.zeros((p, s))
    iters = np.full(p, max_iters)
    done = np.zeros(p, dtype=bool)
    log2 = math.log(2.0)
    for step in range(1, max_iters + 1):
        lnew = _support_matvec(logc, cols, ln)
        off = lnew.max(axis=0)
        lnew_norm = lnew - off
        damped = np.logaddexp(lnew_norm, ln - off) - log2
        est = None
        if d_prev is not None:
            buf[buf_count % window] = damped - d_prev + off
            buf_count += 1
            if buf_count >= window:
                est = buf.mean(axis=0)
                if est_prev is not None:
                    newly = ~done[live] & (np.abs(est - est_prev).max(axis=0) < rate_tol)
                    if newly.any():
                        out[live[newly]] = est[:, newly].T
                        iters[live[newly]] = step
                        done[live[newly]] = True
                        keep = ~done[live]
                        if not keep.any():
                            return out, iters, done
                        if 2 * (len(live) - keep.sum()) >= len(live):
                            live, logc, buf = live[keep], logc[:, :, keep], buf[:, :, keep]
                            est, damped, lnew_norm = est[:, keep], damped[:, keep], lnew_norm[:, keep]
        est_prev = est
        d_prev = damped
        ln = lnew_norm
    if buf_count >= window:
        rest = ~done[live]
        out[live[rest]] = buf.mean(axis=0)[:, rest].T
    return out, iters, done


def growth_rate(model: MdpModel, policy: StationaryPolicy, *,
                rate_tol: float = RATE_TOL, max_iters: int = MAX_POWER_ITERS,
                window: int = RATE_WINDOW) -> GrowthRates:
    """Per-state growth rates lim (1/n) log E_i[exp(sum of costs)] under a
    stationary policy, via power iteration on M(i,j) = exp(c_v(i)) p_v(j|i)."""
    p_v, c_v = apply_policy(model, policy)
    cols, pad = _support_columns(model.support)
    prob = p_v[np.arange(model.num_states)[None, :], cols.T][:, :, None]
    logc = _log_entries(c_v[:, None], prob, pad)
    est, iters, conv = _batched_log_rates(logc, cols, rate_tol, max_iters, window)
    lam = est[0]
    return GrowthRates(lam=lam, lambda_max=float(lam.max()),
                       iterations=int(iters[0]), converged=bool(conv[0]))


def brute_force_lambda_star(model: MdpModel, *, rate_tol: float = RATE_TOL,
                            max_iters: int = MAX_POWER_ITERS) -> BruteForceResult:
    """Exact minimum of max_i (growth rate) over all pure policies.

    Enumerates the |U|^s pure policies (guarded) in lexicographic order, in
    blocks of about BLOCK_ENTRIES stored entries so memory stays bounded (per
    policy, s * k log entries on the support columns and s * RATE_WINDOW
    window entries), runs the batched power iteration per block (each
    policy's iteration is independent of its batch), and breaks value ties
    by lexicographic policy order.
    """
    s, m = model.num_states, model.num_actions
    count = m**s
    if count > ENUMERATION_GUARD:
        raise GuardError(
            f"pure-policy enumeration of {count} policies exceeds guard "
            f"{ENUMERATION_GUARD}"
        )
    cols, pad = _support_columns(model.support)
    block = max(1, BLOCK_ENTRIES // (s * (cols.shape[1] + RATE_WINDOW)))
    place = m ** np.arange(s - 1, -1, -1)   # the last state's action varies fastest
    best_value, best_choice, best_est, converged = None, None, None, True
    for start in range(0, count, block):
        index = np.arange(start, min(start + block, count))
        choices = (index[:, None] // place[None, :]) % m
        logc = _pure_log_entries(model, choices, cols, pad)
        est, _, conv = _batched_log_rates(logc, cols, rate_tol, max_iters, RATE_WINDOW)
        converged &= bool(conv.all())
        values = est.max(axis=1)
        for k in range(len(values)):
            if best_value is None or values[k] < best_value:
                best_value, best_choice, best_est = values[k], choices[k], est[k]
    return BruteForceResult(
        value=float(best_value),
        argmin=PurePolicy(tuple(int(u) for u in best_choice)),
        per_state=best_est,
        converged=converged,
    )


def _communicating_classes(p: np.ndarray):
    """(classes, recurrent_flags) from the support graph of a stochastic matrix."""
    s = p.shape[0]
    reach = np.eye(s, dtype=bool) | (p > 0.0)
    for _ in range(max(1, math.ceil(math.log2(max(s, 2))))):
        reach = reach @ reach
    comm = reach & reach.T
    seen = np.zeros(s, dtype=bool)
    classes = []
    for i in range(s):
        if seen[i]:
            continue
        members = tuple(int(j) for j in np.flatnonzero(comm[i]))
        seen[list(members)] = True
        classes.append(members)
    recurrent = []
    for members in classes:
        inside = np.zeros(s, dtype=bool)
        inside[list(members)] = True
        leaks = p[list(members)][:, ~inside].sum()
        recurrent.append(leaks == 0.0)
    return classes, recurrent


def cesaro_limit(kernel, tol: float = 1e-9) -> np.ndarray:
    """Cesaro limit Q = lim (1/N) sum_k P^k of a row-stochastic matrix.

    Solves each recurrent class's invariant distribution exactly and fills
    absorption probabilities from transient states; the result satisfies
    QP = PQ = QQ = Q within tol.
    """
    p = np.asarray(kernel, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("kernel must be square")
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-10):
        raise ValueError("kernel must be row-stochastic")
    s = p.shape[0]
    classes, recurrent = _communicating_classes(p)
    rec_classes = [c for c, r in zip(classes, recurrent) if r]
    transient = sorted(set(range(s)) - {i for c, r in zip(classes, recurrent) if r for i in c})

    pis = []
    for members in rec_classes:
        idx = list(members)
        sub = p[np.ix_(idx, idx)]
        mat = sub.T - np.eye(len(idx))
        mat[-1, :] = 1.0
        rhs = np.zeros(len(idx))
        rhs[-1] = 1.0
        try:
            pi = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateChainError(
                f"singular invariant system on recurrent class {members}"
            ) from exc
        if pi.min() < -1e-10:
            raise DegenerateChainError(
                f"invariant distribution on class {members} came out negative"
            )
        pis.append(np.clip(pi, 0.0, None) / pi.sum())

    q = np.zeros((s, s))
    for members, pi in zip(rec_classes, pis):
        for i in members:
            q[i, list(members)] = pi
    if transient:
        tt = p[np.ix_(transient, transient)]
        mat = np.eye(len(transient)) - tt
        for members, pi in zip(rec_classes, pis):
            rhs = p[np.ix_(transient, list(members))].sum(axis=1)
            try:
                absorb = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError as exc:
                raise DegenerateChainError(
                    f"singular absorption system for transient states {transient}"
                ) from exc
            q[np.ix_(transient, list(members))] += np.outer(absorb, pi)

    for name, resid in (("QP", q @ p - q), ("PQ", p @ q - q), ("QQ", q @ q - q)):
        err = float(np.abs(resid).max())
        if err > tol:
            raise DegenerateChainError(f"Cesaro limit failed {name} = Q check: {err:.3e}")
    return q


def game_payoff(model: MdpModel, q: KernelMatrix, v: StationaryPolicy) -> PayoffVector:
    """Per-state ergodic payoff Phi = Q ctilde_v for the game chain driven by q.

    States with zero Cesaro weight contribute nothing even if their reward is
    -inf; a -inf reward at a positively weighted state makes that start -inf.
    """
    rows = q.entries
    ces = cesaro_limit(rows)
    s = model.num_states
    ctil = np.empty(s)
    for i in range(s):
        per_action = [tilde_cost(model, i, rows[i], u) for u in range(model.num_actions)]
        ctil[i] = weighted_sum(v.rows[i], per_action)
    phi = np.array([weighted_sum(ces[i], ctil) for i in range(s)])
    return PayoffVector(phi=phi, phi_max=float(phi.max()))
