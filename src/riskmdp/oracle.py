"""Independent ground-truth computations for the game pipeline.

Everything here is deliberately separate from the LP machinery: per-policy
growth rates and the brute-force minimization over all pure policies, both
read off Collatz-Wielandt brackets.  The LP solutions are verified against
these.

For any h > 0, min_i (Mh)_i/h_i <= rho(M) <= max_i (Mh)_i/h_i.  The
iteration stores each policy's log matrix only on the model's union-support
columns (k per state, k the largest support size), so one step is k
elementwise passes summed left to right in slot order.  Each step tightens
every chain's running bracket on log rho and then takes the damped step
h <- (h + Mh / e^{max r}) / 2, which makes periodic chains converge.  After
RESTART_STEP steps every chain still open restarts once from an estimate of
its Perron vector, (I + B)^(2^SQUARINGS) applied to the ones vector on the
dense matrix B; the bracket holds for any h > 0, so the restart changes how
fast a bracket closes, never what it certifies.  On a reducible chain the
entries between communicating classes are dropped and each class keeps its
own bracket.  A chain stops once its brackets are RATE_TOL wide, and the
brute force drops a policy as soon as its lower bound passes the best upper
bound seen.  Growth rates of a single policy and the brute-force scan share
that one code path.  perron_policy, risk-sensitive policy iteration on the
same Perron estimate, gives the pure policy constraint generation starts
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ModelError
from .model import MdpModel, PurePolicy, StationaryPolicy, apply_policy

NEG_INF = -math.inf    # the reward of a row that is not absolutely continuous
ENUMERATION_GUARD = 10**6
BLOCK_ENTRIES = 2**20    # stored log entries per brute-force batch (8 MB of float64)
RATE_TOL = 1e-10
MAX_POWER_ITERS = 100_000
RESTART_STEP = 32   # a restart costs about what 32 batched steps cost a chain
SQUARINGS = 10      # the Perron estimate is (I + B)^1024
RELATIVE_PASSES = 64   # restarts relative to the iterate, at most, per chain
LOG2 = math.log(2.0)
TINY = np.finfo(float).tiny
LOG_TINY = math.log(TINY)


@dataclass(frozen=True)
class GrowthRates:
    """Per-state growth rates of E[exp(cumulative cost)] under one policy."""

    lam: np.ndarray
    lambda_max: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    bracket: tuple[float, float]
    argmin: PurePolicy
    per_state: np.ndarray
    converged: bool


def kl_divergence(qrow, prow) -> float:
    """Kullback-Leibler divergence sum_j q_j log(q_j / p_j).

    Terms with q_j = 0 contribute 0; any q_j > 0 where p_j = 0 gives +inf.
    A p_j below the smallest normal double would overflow q_j / p_j, so on
    such a row the logs are taken apart.
    """
    q = np.asarray(qrow, dtype=float)
    p = np.asarray(prow, dtype=float)
    mask = q > 0.0
    qm, pm = q[mask], p[mask]
    least = pm.min(initial=1.0)
    if least == 0.0:
        return math.inf
    if least < TINY:
        return float(np.sum(qm * (np.log(qm) - np.log(pm))))
    return float(np.sum(qm * np.log(qm / pm)))


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


def _support_graph(model: MdpModel, logc: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean support graphs of the chains in logc: graph[i, j, p] says chain
    p moves from i to j.  When every action at a state shares one support,
    every policy's graph is the union support graph, returned once as
    (s, s, 1); otherwise (s, s, P), read off logc's finite entries."""
    if np.array_equal(model.common, model.support):
        return model.support[:, :, None]
    k, s, p = logc.shape
    graph = np.zeros((s, s, p), dtype=bool)
    for c in range(k):
        graph[np.arange(s), cols[:, c]] |= logc[c] > NEG_INF
    return graph


def _communicating_classes(graph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, reach) of a batch of (s, s, P) support graphs.

    reach[i, j, p] says j can be reached from i in one or more steps
    (Warshall's closure), and labels (s, P) names each state's communicating
    class by its smallest member.
    """
    s = graph.shape[0]
    reach = graph.copy()
    for k in range(s):
        reach |= reach[:, k:k + 1] & reach[k:k + 1]
    comm = reach & reach.transpose(1, 0, 2)
    comm |= np.eye(s, dtype=bool)[:, :, None]
    return comm.argmax(axis=1), reach


def _take(groups, index):
    """groups restricted to the chains in index (unchanged when shared)."""
    if groups is None or groups[0].shape[2] == 1:
        return groups
    member, gid = groups
    return member[:, :, index], gid[:, index]


def _class_max(x: np.ndarray, groups, rest: float) -> np.ndarray:
    """Each state's class maximum of x (s, P): the chain maximum when groups
    is None, the largest x over the state's class otherwise, and rest for a
    state in no class."""
    if groups is None:
        return x.max(axis=0, keepdims=True)
    member, gid = groups
    top = np.where(member, x, -math.inf).max(axis=1)
    return np.take_along_axis(np.vstack([top, np.full_like(top[:1], rest)]), gid, axis=0)


def _perron_start(logc: np.ndarray, cols: np.ndarray, groups):
    """Log Perron-vector estimates (s, P) for the chains in logc, per class,
    and whether each chain's estimate is exact.

    Each chain's matrix B is built densely in linear space, each class shifted
    by its largest log entry, with the rows of states on no cycle zeroed; I is
    added so periodic classes converge too.  (I + B) is squared SQUARINGS
    times and rescaled after each squaring by its class maxima: the classes
    do not touch, so separate scales leave each block's eigenvector
    unchanged.  log h is the log of the row sums; a state on no cycle gets 0.
    A row sum below the smallest normal float, where a vector spans more than
    about 708 in log space and the squarings lose it to underflow, gives -inf.
    An estimate is inexact where it has such an entry, or where a state's
    whole row of B underflows: the squarings then see an identity row.
    """
    k, s, p = logc.shape
    top = logc.max(axis=0)
    shift = _class_max(top, groups, math.inf)   # zeroes rows on no cycle
    lost_row = (top - shift < LOG_TINY) & np.isfinite(shift)
    mat = np.zeros((p, s, s))
    rows = np.arange(s)
    for c in range(k - 1, -1, -1):   # real slots overwrite the padded repeats
        mat[:, rows, cols[:, c]] = np.exp(logc[c] - shift).T
    mat[:, rows, rows] += 1.0
    for _ in range(SQUARINGS):
        mat = mat @ mat
        mat /= _class_max(mat.max(axis=2).T, groups, 1.0).T[:, :, None]
    total = mat.sum(axis=2).T
    with np.errstate(divide="ignore"):
        start = np.log(np.where(total < TINY, 0.0, total))
    return start, np.isfinite(start).all(axis=0) & ~lost_row.any(axis=0)


def _brackets(logc: np.ndarray, cols: np.ndarray, groups, best: float):
    """Collatz-Wielandt brackets on log rho for a batch of chains.

    Each chain's log matrix is stored only on the union-support columns, state
    major: logc[c, i, p] is the log entry of chain p at (i, cols[i, c]), -inf
    on padded slots and between classes.  groups is None when every chain is
    one class; otherwise (member, gid), where member[g, i, p] puts state i of
    chain p in class g and gid[i, p] names that class (G for a state in
    none), with a last axis of P or a shared 1.

    Each step forms r = log(Mh) - log h, tightens every class's running
    bracket [lo, hi] with the min and max of r over the class, and damps each
    class by its own max r: h <- (h + Mh / e^{max r}) / 2, renormalized to a
    maximum of 1.  A state in no class is damped by its chain's largest max r.
    After step RESTART_STEP every chain still active restarts from
    _perron_start, in batches of at most BLOCK_ENTRIES dense entries, unless
    its estimate has a non-finite entry; lo and hi keep their running max
    and min across the restart.
    A chain finishes when every class bracket is at most RATE_TOL wide, and
    stops unfinished after MAX_POWER_ITERS steps.  It is dropped when its
    lower end (the largest lo over its classes) exceeds best, the smallest
    upper end (the largest hi over its classes) seen so far, which starts
    from the caller's value.  Stopped chains leave the batch once they make
    up half of it.  Every operation acts per chain, so a chain's brackets do
    not depend on which other chains share its batch.
    Returns lo and hi (G, P) at each chain's last step, step counts, closed
    flags and best.
    """
    _, s, p = logc.shape
    g = 1 if groups is None else groups[0].shape[0]
    live = np.arange(p)
    active = np.ones(p, dtype=bool)
    ln = np.zeros((s, p))
    lo, hi = np.full((g, p), -math.inf), np.full((g, p), math.inf)
    out_lo, out_hi = np.empty((g, p)), np.empty((g, p))
    steps = np.full(p, MAX_POWER_ITERS)
    closed = np.zeros(p, dtype=bool)
    chunk = max(1, BLOCK_ENTRIES // (s * s))
    for step in range(1, MAX_POWER_ITERS + 1):
        lnew = _support_matvec(logc, cols, ln)
        r = lnew - ln
        if groups is None:
            rmin, rmax = r.min(axis=0, keepdims=True), r.max(axis=0, keepdims=True)
            shift = rmax
        else:
            member, gid = groups
            rmin = np.array([np.where(mask, r, math.inf).min(axis=0) for mask in member])
            rmax = np.array([np.where(mask, r, -math.inf).max(axis=0) for mask in member])
            shift = np.take_along_axis(np.vstack([rmax, rmax.max(axis=0)]), gid, axis=0)
        lo = np.maximum(lo, rmin)
        hi = np.minimum(hi, rmax)
        best = min(best, float(hi.max(axis=0)[active].min()))
        done = (hi - lo <= RATE_TOL).all(axis=0)
        stop = active & (done | (np.minimum(lo, hi).max(axis=0) > best))
        if stop.any():
            out_lo[:, live[stop]], out_hi[:, live[stop]] = lo[:, stop], hi[:, stop]
            steps[live[stop]] = step
            closed[live[stop]] = done[stop]
            active &= ~stop
            if not active.any():
                return out_lo, out_hi, steps, closed, best
            if 2 * active.sum() <= len(active):
                live, logc, ln, lnew = live[active], logc[:, :, active], ln[:, active], lnew[:, active]
                lo, hi, shift = lo[:, active], hi[:, active], shift[:, active]
                groups = _take(groups, active)
                active = active[active]
        b = lnew - shift
        ln = np.maximum(ln, b) + np.log1p(np.exp(-np.abs(ln - b))) - LOG2
        ln -= ln.max(axis=0)
        if step == RESTART_STEP:
            chains = np.flatnonzero(active)
            for a in range(0, len(chains), chunk):
                part = chains[a:a + chunk]
                start, exact = _perron_start(logc[:, :, part], cols, _take(groups, part))
                ln[:, part[exact]] = start[:, exact]
                lost = part[~exact]
                for _ in range(RELATIVE_PASSES):
                    if not lost.size:
                        break
                    # D^-1 B D with D = diag(h): its Perron vector is the
                    # correction to h, which spans less than h; an entry the
                    # correction loses to underflow moves by the most it holds
                    h = ln[:, lost]
                    move, exact = _perron_start(logc[:, :, lost] + h[cols.T] - h[None], cols,
                                                _take(groups, lost))
                    ln[:, lost] += np.maximum(move, LOG_TINY)
                    lost = lost[~exact]
    out_lo[:, live[active]], out_hi[:, live[active]] = lo[:, active], hi[:, active]
    return out_lo, out_hi, steps, closed, best


def _class_rates(logc: np.ndarray, cols: np.ndarray, graph: np.ndarray,
                 best: float = math.inf):
    """Per-state growth rates and brackets of a batch of chains with support
    graphs graph ((s, s, P), or (s, s, 1) shared).

    A chain whose graph is strongly connected is bracketed as a whole.
    Otherwise logc's entries between communicating classes are set to -inf,
    which leaves rho unchanged, and every class on a cycle is bracketed on its
    own; a state on no cycle (a rate of -inf) keeps its row and joins no
    class.  A class's rate is its bracket's midpoint, and lam_i is the largest
    rate over the classes reachable from i.  Returns lam (s, P), the chains'
    brackets lo and hi (P,) (the largest lo and the largest hi over their
    classes), step counts, closed flags and best, as _brackets gives them.
    """
    labels, reach = _communicating_classes(graph)
    s = labels.shape[0]
    groups = None
    if labels.any():
        cyclic = np.diagonal(reach).T
        reps = np.unique(labels[cyclic])
        member = (labels[None] == reps[:, None, None]) & cyclic[None]
        groups = (member, np.where(cyclic, np.searchsorted(reps, labels), len(reps)))
        np.copyto(logc, NEG_INF, where=(labels[cols.T] != labels[None]) & cyclic[None])
    lo, hi, steps, closed, best = _brackets(logc, cols, groups, best)
    lo = np.minimum(lo, hi)
    mid = (lo + hi) / 2.0
    if groups is None:
        lam = np.repeat(mid, s, axis=0)
    else:
        to = (reach | np.eye(s, dtype=bool)[:, :, None])[:, reps].transpose(1, 0, 2)
        lam = np.where(to, mid[:, None], NEG_INF).max(axis=0)
    return lam, lo.max(axis=0), hi.max(axis=0), steps, closed, best


def growth_rate(model: MdpModel, policy: StationaryPolicy) -> GrowthRates:
    """Per-state growth rates lim (1/n) log E_i[exp(sum of costs)] under a
    stationary policy: the largest log rho over the communicating classes of
    M(i,j) = exp(c_v(i)) p_v(j|i) that i reaches, each read off its bracket.
    converged says every class bracket closed within MAX_POWER_ITERS steps."""
    p_v, c_v = apply_policy(model, policy)
    cols, pad = _support_columns(model.support)
    prob = p_v[np.arange(model.num_states)[None, :], cols.T][:, :, None]
    logc = _log_entries(c_v[:, None], prob, pad)
    lam, _, _, steps, closed, _ = _class_rates(logc, cols, _support_graph(model, logc, cols))
    return GrowthRates(lam=lam[:, 0], lambda_max=float(lam.max()),
                       iterations=int(steps[0]), converged=bool(closed[0]))


def _pure_perron(model: MdpModel, choice: np.ndarray, cols: np.ndarray, pad: np.ndarray):
    """Log Perron vector of one pure policy's matrix B, taken as one class,
    and whether its Collatz-Wielandt bracket closed to RATE_TOL: from h = 1,
    each of up to RELATIVE_PASSES passes moves h by the _perron_start
    estimate on D^-1 B D with D = diag(h), an entry lost to underflow by the
    most it holds (as _brackets restarts a lost chain)."""
    logc = _pure_log_entries(model, choice[None], cols, pad)
    ln = np.zeros((model.num_states, 1))
    for _ in range(RELATIVE_PASSES):
        move, _ = _perron_start(logc + ln[cols.T] - ln[None], cols, None)
        ln += np.maximum(move, LOG_TINY)
        r = _support_matvec(logc, cols, ln) - ln
        if float(r.max() - r.min()) <= RATE_TOL:
            return ln[:, 0], True
    return ln[:, 0], False


def perron_policy(model: MdpModel) -> tuple[np.ndarray, np.ndarray | None]:
    """A pure policy by risk-sensitive policy iteration (Howard and Matheson,
    Management Science 1972), in log space, and its log Perron vector.

    From each state's cheapest action, every step takes the policy's log
    Perron vector h and switches each state whose action is beaten by more
    than RATE_TOL to the u minimizing c(i,u) + log sum_j p(j|i,u) h_j (ties
    to the lowest index).  Returns (choice, log_h) once no state improves.
    It gives up, with log_h None, at a policy whose chain is reducible or
    whose h is not exact (_pure_perron), and after s * |U| steps.
    """
    s = model.num_states
    states = np.arange(s)
    cols, pad = _support_columns(model.support)
    with np.errstate(divide="ignore"):
        logk = np.log(model.kernel)
    choice = model.cost.argmin(axis=1)
    for _ in range(s * model.num_actions):
        if _communicating_classes((model.kernel[choice, states] > 0.0)[:, :, None])[0].any():
            break
        log_h, exact = _pure_perron(model, choice, cols, pad)
        if not exact:
            break
        z = logk + log_h
        top = z.max(axis=2)
        score = model.cost.T + top + np.log(np.exp(z - top[:, :, None]).sum(axis=2))
        better = score.min(axis=0) < score[choice, states] - RATE_TOL
        if not better.any():
            return choice, log_h
        choice = np.where(better, score.argmin(axis=0), choice)
    return choice, None


def brute_force_lambda_star(model: MdpModel) -> BruteForceResult:
    """Minimum of max_i (growth rate) over all pure policies, with a bracket.

    Enumerates the |U|^s pure policies (guarded) in lexicographic order, in
    blocks of about BLOCK_ENTRIES stored entries (s * k log entries per
    policy) so memory stays bounded, and brackets each block, dropping a
    policy once its lower end exceeds the smallest upper end seen in any
    block.  The argmin is the lexicographically first policy whose final lower
    end is at most the smallest final upper end; value is the largest of its
    class rates, per_state its per-state rates and bracket its [lo, hi], which
    holds value.  converged says every such policy's bracket closed.  None of
    this depends on the block size.
    """
    s, m = model.num_states, model.num_actions
    count = m**s
    if count > ENUMERATION_GUARD:
        raise GuardError(
            f"pure-policy enumeration of {count} policies exceeds guard "
            f"{ENUMERATION_GUARD}"
        )
    cols, pad = _support_columns(model.support)
    block = max(1, BLOCK_ENTRIES // (s * cols.shape[1]))
    place = m ** np.arange(s - 1, -1, -1)   # the last state's action varies fastest
    best, kept = math.inf, []
    for start in range(0, count, block):
        index = np.arange(start, min(start + block, count))
        choices = (index[:, None] // place[None, :]) % m
        logc = _pure_log_entries(model, choices, cols, pad)
        lam, lo, hi, _, closed, best = _class_rates(
            logc, cols, _support_graph(model, logc, cols), best)
        kept = [c for c in kept if c[0] <= best]
        kept += [(lo[j], hi[j], closed[j], choices[j], lam[:, j])
                 for j in np.flatnonzero(lo <= best)]
    lo, hi, _, choice, lam = kept[0]
    return BruteForceResult(
        value=float(lam.max()),
        bracket=(float(lo), float(hi)),
        argmin=PurePolicy(tuple(int(u) for u in choice)),
        per_state=lam,
        converged=all(c[2] for c in kept),
    )
