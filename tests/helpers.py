"""Shared test utilities: the seeded model corpus and independent oracles.

The oracles here intentionally re-derive results through routes the library
does not use (basis enumeration for LPs, dense 1-d scans for the analytic
chain, a dense bracket iteration for the growth-rate oracle, the game's
primal LP, the fully enumerated dyadic grid and its dual, which the
library's restricted master reproduces without building, Dirichlet-sampled
kernels scored with scalar KL rewards against the exact separation) so that
agreement is meaningful.  The ergodic game
payoff (Cesaro limits, invariant measures, the 0 * (-inf) = 0 weighted sum)
lives here too: only tests and the acceptance gate evaluate it.  So do the
general-form LPs (min, <= rows, bounds) the tests state: GeneralLp reaches
the LP kernel, which takes max over == and >= rows, through solve_general.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from riskmdp import game, oracle
from riskmdp.certify import build_certificate
from riskmdp.errors import GuardError, ModelError
from riskmdp.grid import GridSpec, lattice_numerators
from riskmdp.lp import LinearProgram, LpError, LpSolution, solve as lp_solve
from riskmdp.model import (KernelMatrix, MdpModel, PurePolicy, StationaryPolicy, parse_model,
                           read_json)
from riskmdp.oracle import NEG_INF, _communicating_classes, tilde_cost


def weighted_sum(weights, values) -> float:
    """Sum w_k * v_k under the convention 0 * (-inf) = 0.

    Any strictly positive weight on a -inf value makes the result -inf.
    """
    total = 0.0
    for w, v in zip(weights, values):
        if w == 0.0:
            continue
        if v == NEG_INF:
            return NEG_INF
        total += w * v
    return total


def union_support(model: MdpModel, i: int) -> tuple[int, ...]:
    """Successor states reachable from i under some action: {j : max_u p(j|i,u) > 0}."""
    if not 0 <= i < model.num_states:
        raise IndexError(f"state index {i} out of range")
    return tuple(int(j) for j in np.flatnonzero(model.support[i]))


def load_model(path) -> MdpModel:
    """Load and validate a model from a JSON file."""
    return parse_model(read_json(path, "model file"))


def pure_policy(choice, num_actions: int) -> StationaryPolicy:
    """The stationary policy that plays action choice[i] at state i."""
    rows = np.zeros((len(choice), num_actions))
    rows[np.arange(len(choice)), list(choice)] = 1.0
    return StationaryPolicy(rows)


def uniform_policy(num_states: int, num_actions: int) -> StationaryPolicy:
    """The stationary policy that plays every action with equal weight."""
    return StationaryPolicy(np.full((num_states, num_actions), 1.0 / num_actions))


def as_stationary(pure: PurePolicy, num_actions: int) -> StationaryPolicy:
    """The pure policy as a stationary one with 0/1 rows."""
    if any(u >= num_actions for u in pure.choice):
        raise ModelError("action index out of range")
    return pure_policy(pure.choice, num_actions)


def worst_residual(cert) -> float:
    """The larger of a DpCertificate's worst dp1 and dp2 residuals."""
    return max(float(cert.residual_dp1.max()), float(cert.residual_dp2.max()))


class DegenerateChainError(RuntimeError):
    """A numerically degenerate recurrent class (singular invariant system)."""


@dataclass(frozen=True)
class PayoffVector:
    """Per-state ergodic payoffs of the game chain; -inf marks an absolute
    continuity failure at a state with positive Cesaro weight."""

    phi: np.ndarray
    phi_max: float


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


@dataclass(frozen=True)
class GeneralLp:
    """An LP as the tests state it: min or max objective.x subject to
    matrix x {<=, ==, >=} rhs, each column nonnegative (lower 0, upper inf),
    free (-inf, inf) or fixed at 0 (0, 0).  solve_general passes it to
    lp.solve as the one program that takes: max, == and >= rows."""

    sense: str
    objective: np.ndarray
    matrix: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def build(cls, sense, objective, rows, cols, vals, relations, rhs,
              lower=None, upper=None) -> "GeneralLp":
        """From (row, col, value) triplets; duplicates are summed."""
        objective, rhs = np.asarray(objective, dtype=float), np.asarray(rhs, dtype=float)
        n = objective.shape[0]
        matrix = np.zeros((rhs.shape[0], n))
        np.add.at(matrix, (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)),
                  np.asarray(vals, dtype=float))
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        return cls(sense, objective, matrix, tuple(relations), rhs, lower, upper)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.rhs.shape[0]


def solve_general(prog: GeneralLp, basis=None) -> LpSolution:
    """lp.solve of prog, a min objective negated and each <= row negated
    into a >= row; the duals and the objective value are mapped back, so
    that b.y equals prog's objective at optimum (min: >= rows have dual
    >= 0 and <= rows dual <= 0, == rows free; max: the signs flip).  The
    working matrix keeps its column layout, so bases carry over."""
    free, fixed = np.isneginf(prog.lower), prog.upper == 0.0
    assert np.all(np.where(free, np.isposinf(prog.upper),
                           (prog.lower == 0.0) & (fixed | np.isposinf(prog.upper))))
    sign = 1.0 if prog.sense == "max" else -1.0
    flip = np.where(np.array(prog.relations) == "<=", -1.0, 1.0)
    rows, cols = np.nonzero(prog.matrix)
    sol = lp_solve(LinearProgram.build(
        sign * prog.objective, rows, cols, flip[rows] * prog.matrix[rows, cols],
        [">=" if rel == "<=" else rel for rel in prog.relations], flip * prog.rhs,
        free=free, fixed=fixed), basis=basis)
    if sol.status != "optimal":
        return sol
    return replace(sol, duals=sign * flip * sol.duals, objective_value=sign * sol.objective_value)


def dense(prog: LinearProgram) -> np.ndarray:
    """The constraint matrix of prog, its triplets summed."""
    matrix = np.zeros((prog.num_constraints, prog.num_vars))
    np.add.at(matrix, (prog.rows, prog.cols), prog.vals)
    return matrix


def enumerate_lp_optimum(lp):
    """Brute-force LP optimum by basis enumeration on the slack-standard form.

    Handles only default bounds (x >= 0, no upper); returns
    (best objective, best x) or (None, None) when no feasible basis exists.
    """
    assert np.all(lp.lower == 0.0) and np.all(np.isposinf(lp.upper))
    a = lp.matrix
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


def dense_classes(logm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, reach) of the support graphs of dense (P, s, s) log matrices,
    by repeated boolean squaring: reach[p, i, j] says j is reachable from i in
    one or more steps, labels (P, s) names each class by its smallest member."""
    graph = (logm > NEG_INF).astype(np.int64)
    s = graph.shape[1]
    reach = graph
    for _ in range(max(1, math.ceil(math.log2(max(s, 2))))):
        reach = np.minimum(reach + reach @ reach, 1)
    reach = reach.astype(bool)
    comm = reach & reach.transpose(0, 2, 1) | np.eye(s, dtype=bool)
    return comm.argmax(axis=2), reach


def dense_perron_start(logm: np.ndarray, labels: np.ndarray, cyclic: np.ndarray):
    """Reference restart on dense (P, s, s) log matrices with no entries
    between classes: each class shifted by its largest entry, rows of states
    on no cycle zeroed, I added, squared oracle.SQUARINGS times with each
    class rescaled by its largest entry after each squaring; log h (P, s) is
    the log of the row sums, -inf where a row sum is below the smallest
    normal float.  Also returns whether each estimate is exact: finite, and
    no state on a cycle has its whole shifted row below that float."""
    same = labels[:, :, None] == labels[:, None, :]

    def class_max(x):
        return np.where(same, x[:, None, :], -math.inf).max(axis=2)

    top = logm.max(axis=2)
    shift = np.where(cyclic, class_max(top), math.inf)
    mat = np.exp(logm - shift[:, :, None]) + np.eye(logm.shape[1])
    for _ in range(oracle.SQUARINGS):
        mat = mat @ mat
        mat /= class_max(mat.max(axis=2))[:, :, None]
    total = mat.sum(axis=2)
    with np.errstate(divide="ignore"):
        start = np.log(np.where(total < np.finfo(float).tiny, 0.0, total))
    lost_row = (top - shift < oracle.LOG_TINY) & cyclic
    return start, np.isfinite(start).all(axis=1) & ~lost_row.any(axis=1)


def dense_log_rates(logm: np.ndarray, rate_tol: float, max_iters: int, best: float = math.inf):
    """Reference bracket iteration on dense (P, s, s) log matrices.

    The same class masking, brackets, damping, renormalization, restart,
    stop rule and prune rule as the library's support-column iteration, but
    with a dense log-sum-exp over all s columns, classes named by their
    smallest member (s slots per chain, unused ones empty), and every chain
    kept in the batch until the last one stops.  Returns per-state rates
    (P, s), the chain brackets lo and hi, step counts and closed flags.
    """
    p, s, _ = logm.shape
    labels, reach = dense_classes(logm)
    cyclic = np.diagonal(reach, axis1=1, axis2=2)
    logm = np.where((labels[:, :, None] != labels[:, None, :]) & cyclic[:, :, None],
                    NEG_INF, logm)
    member = [(labels == v) & cyclic for v in range(s)]
    slot = np.where(cyclic, labels, s)
    ln = np.zeros((p, s))
    lo, hi = np.full((s, p), -math.inf), np.full((s, p), math.inf)
    out_lo, out_hi = np.empty((s, p)), np.empty((s, p))
    steps = np.full(p, max_iters)
    closed = np.zeros(p, dtype=bool)
    active = np.ones(p, dtype=bool)
    for step in range(1, max_iters + 1):
        lnew = dense_log_matvec(logm, ln)
        r = lnew - ln
        rmin = np.array([np.where(mask, r, math.inf).min(axis=1) for mask in member])
        rmax = np.array([np.where(mask, r, -math.inf).max(axis=1) for mask in member])
        lo = np.maximum(lo, rmin)
        hi = np.minimum(hi, rmax)
        best = min(best, float(hi.max(axis=0)[active].min()))
        done = (hi - lo <= rate_tol).all(axis=0)
        stop = active & (done | (np.minimum(lo, hi).max(axis=0) > best))
        out_lo[:, stop], out_hi[:, stop] = lo[:, stop], hi[:, stop]
        steps[stop] = step
        closed[stop] = done[stop]
        active &= ~stop
        if not active.any():
            break
        shift = np.take_along_axis(np.vstack([rmax, rmax.max(axis=0)]).T, slot, axis=1)
        b = lnew - shift
        ln = np.maximum(ln, b) + np.log1p(np.exp(-np.abs(ln - b))) - math.log(2.0)
        ln -= ln.max(axis=1)[:, None]
        if step == oracle.RESTART_STEP:
            start, exact = dense_perron_start(logm, labels, cyclic)
            ln[exact] = start[exact]
            lost = np.flatnonzero(~exact)
            for _ in range(oracle.RELATIVE_PASSES):
                if not lost.size:
                    break
                # the estimate relative to the iterate, D^-1 B D with D = diag(h)
                rel = logm[lost] + ln[lost, None, :] - ln[lost, :, None]
                move, exact = dense_perron_start(rel, labels[lost], cyclic[lost])
                ln[lost] += np.maximum(move, oracle.LOG_TINY)
                lost = lost[~exact]
    out_lo[:, active], out_hi[:, active] = lo[:, active], hi[:, active]
    out_lo = np.minimum(out_lo, out_hi)
    mid = (out_lo + out_hi) / 2.0
    to = reach | np.eye(s, dtype=bool)
    lam = np.array([[max((mid[labels[q, j], q] for j in range(s) if to[q, i, j] and cyclic[q, j]),
                         default=NEG_INF) for i in range(s)] for q in range(p)])
    return lam, out_lo.max(axis=0), out_hi.max(axis=0), steps, closed


def class_log_rho(matrix: np.ndarray) -> float:
    """log rho of a nonnegative matrix from numpy.linalg.eigvals, taken over
    the diagonal block of each communicating class on a cycle (rho is the
    largest of theirs), so a reducible matrix's defective eigenvalues do not
    blur the reference."""
    with np.errstate(divide="ignore"):
        labels, reach = dense_classes(np.log(matrix)[None])
    best = NEG_INF
    for v in np.unique(labels[0]):
        members = np.flatnonzero(labels[0] == v)
        if reach[0, members[0], members[0]]:
            block = matrix[np.ix_(members, members)]
            best = max(best, math.log(np.abs(np.linalg.eigvals(block)).max()))
    return best


def pure_log_rho_min(model: MdpModel) -> float:
    """Smallest class_log_rho of exp(c_v(i)) p_v(j|i) over all pure policies."""
    s = model.num_states
    states = np.arange(s)
    return min(class_log_rho(np.exp(model.cost[states, v])[:, None] * model.kernel[v, states])
               for v in map(np.array, itertools.product(range(model.num_actions), repeat=s)))


# (states, actions) of the two-successor models the game tests sweep by seed
TWO_SUCCESSOR_SHAPES = ((3, 2), (4, 3), (4, 2), (3, 3))


def two_successor_model(seed: int, s: int, m: int, cost_scale: float = 10.0) -> MdpModel:
    """Random model whose every (action, state) row has its own two successors
    (a self-loop at s = 1), so supports differ across actions, split
    U[0.05, 0.95]; costs U[0, cost_scale].  Large costs make some policies'
    tilted matrices nearly periodic."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for u in range(m):
        for i in range(s):
            if s == 1:
                kernel[u, i, 0] = 1.0
                continue
            a, b = rng.choice(s, size=2, replace=False)
            x = rng.uniform(0.05, 0.95)
            kernel[u, i, a] = x
            kernel[u, i, b] = 1.0 - x
    return MdpModel(states=tuple(f"s{i}" for i in range(s)),
                    actions=tuple(f"a{u}" for u in range(m)),
                    kernel=kernel, cost=rng.uniform(0.0, cost_scale, size=(s, m)))


def structured_model(kind: str, seed: int, s: int, m: int) -> MdpModel:
    """Random model of one structure, per-action two-successor rows split
    U[0.05, 1] before normalization, costs U[0, 10]: "periodic" is a
    deterministic cycle under every action, "absorbing" makes state 0
    absorb, "disconnected" splits the states into two closed blocks, and
    "differing" gives every (action, state) row its own successors."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for u in range(m):
        for i in range(s):
            if kind == "periodic":
                succ = [(i + 1) % s]
            elif kind == "absorbing" and i == 0:
                succ = [0]
            elif kind == "disconnected":
                block = range(0, s // 2) if i < s // 2 else range(s // 2, s)
                succ = [int(rng.choice(block)), block[0] + (i + 1 - block[0]) % len(block)]
            else:
                succ = list(rng.choice(s, size=min(2, s), replace=False))
            np.add.at(kernel[u, i], succ, rng.uniform(0.05, 1.0, size=len(succ)))
            kernel[u, i] /= kernel[u, i].sum()
    return MdpModel(states=tuple(f"s{i}" for i in range(s)),
                    actions=tuple(f"a{u}" for u in range(m)),
                    kernel=kernel, cost=rng.uniform(0.0, 10.0, size=(s, m)))


def wide_model(seed: int, index: int, s: int = 6, m: int = 2) -> MdpModel:
    """The benchmark's wide family: i+1 and three other successors per state,
    a Dirichlet(1) base row plus a uniform +-0.005 jitter per action and
    entry, clipped below at 0.01 and renormalized; costs U[0, 1]; drawn from
    default_rng([seed, index])."""
    rng = np.random.default_rng([seed, index])
    kernel = np.zeros((m, s, s))
    for i in range(s):
        others = [j for j in range(s) if j != (i + 1) % s]
        picks = rng.choice(others, size=3, replace=False)
        support = sorted([(i + 1) % s, *(int(j) for j in picks)])
        base = rng.dirichlet(np.ones(4))
        for u in range(m):
            row = np.maximum(base + rng.uniform(-0.005, 0.005, size=4), 0.01)
            kernel[u, i, support] = row / row.sum()
    return MdpModel(states=tuple(f"s{i}" for i in range(s)),
                    actions=tuple(f"a{u}" for u in range(m)),
                    kernel=kernel, cost=rng.uniform(0.0, 1.0, size=(s, m)))


def scan_self_loop_weight(rho: float, step: float = 1e-6) -> float:
    """Dense 1-d scan oracle for the subcritical self-loop weight.

    Maximizes B(q)/(1-q) with B(q) = 1 - q log(q/rho)
    - (1-q) log((1-q)/(1-rho)) on a uniform grid of pitch `step`.
    """
    q = np.arange(step, 1.0, step)
    b = 1.0 - q * np.log(q / rho) - (1.0 - q) * np.log((1.0 - q) / (1.0 - rho))
    return float(q[np.argmax(b / (1.0 - q))])


# Largest per-state row count build_grid will enumerate.
ENUMERATION_GUARD = 10**6


def enumerate_rows(support_size: int, resolution: int) -> list[tuple[int, ...]]:
    """All compositions of 2^resolution into support_size nonnegative parts.

    Returned in ascending lexicographic order; the count is
    C(2^n + k - 1, k - 1) and is guarded before generation.
    """
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    total = 2**resolution
    count = math.comb(total + support_size - 1, support_size - 1)
    if count > ENUMERATION_GUARD:
        raise GuardError(
            f"grid enumeration of {count} rows (support {support_size}, "
            f"resolution {resolution}) exceeds guard {ENUMERATION_GUARD}"
        )
    out: list[tuple[int, ...]] = []
    row = [0] * support_size

    def fill(pos: int, remaining: int) -> None:
        if pos == support_size - 1:
            row[pos] = remaining
            out.append(tuple(row))
            return
        for k in range(remaining + 1):
            row[pos] = k
            fill(pos + 1, remaining - k)

    fill(0, total)
    assert len(out) == count
    return out


@dataclass(frozen=True)
class FullGrid(GridSpec):
    """Every dyadic row of each state at one resolution.

    numerators[i] lists integer tuples over supports[i]; rows[i] is the
    matching (count, s) float matrix with zeros off the support.
    """

    resolution: int
    num_states: int
    supports: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[tuple[int, ...], ...], ...]

    def row_count(self, i: int) -> int:
        return len(self.numerators[i])


def build_grid(model: MdpModel, resolution: int) -> FullGrid:
    """Enumerate the per-state dyadic action sets at the given resolution:
    the "same LP" reference of the library's restricted master.

    The compositions depend only on the support size, so each distinct size
    is enumerated once and shared by the states that have it.
    """
    s = model.num_states
    scale = float(2**resolution)
    by_size = {}
    supports, numerators, rows = [], [], []
    for i in range(s):
        supp = union_support(model, i)
        if len(supp) not in by_size:
            nums = tuple(enumerate_rows(len(supp), resolution))
            by_size[len(supp)] = nums, np.asarray(nums, dtype=float) / scale
        nums, fractions = by_size[len(supp)]
        mat = np.zeros((len(nums), s))
        mat[:, supp] = fractions
        mat.setflags(write=False)
        supports.append(supp)
        numerators.append(nums)
        rows.append(mat)
    return FullGrid(rows=tuple(rows), resolution=resolution, num_states=s,
                    supports=tuple(supports), numerators=tuple(numerators))


def build_dual(model: MdpModel, grid: FullGrid) -> LinearProgram:
    """The game dual over every row of the grid, as the library assembles it."""
    if grid.num_states != model.num_states:
        raise ValueError("grid was built for a different model shape")
    rows, owner = grid.stacked()
    return game._dual(model, rows, owner)


def solve_game(model: MdpModel, resolution: int) -> game.GameSolution:
    """The library's solve of one resolution: a sweep from it to itself."""
    return game.solve_sequence(model, resolution, resolution).final


def full_grid_solution(model: MdpModel, resolution: int) -> game.GameSolution:
    """The game LP pair over the fully enumerated grid, solved cold."""
    rows, owner = build_grid(model, resolution).stacked()
    rnd = game._solve_pair(model, rows, owner, resolution=resolution)
    priced, _ = game._price(model, rnd.beta, rnd.vvec, rnd.y, resolution)
    return game._extract(model, rows, owner, rnd, priced, resolution)


def solve_extracting_every_round(solve, model: MdpModel, *args):
    """solve(model, *args), game.solve_congen or game.solve_sequence, with
    every restricted-master round also extracted (maximizer rows,
    purification), not only the returned one, at the rows its latest
    pricing call gave; returns the result and the extraction of each round
    in order.  The solvers once worked this way: the returned solution must
    equal the last round's extraction."""
    extracted, latest = [], []
    solve_pair, restricted_master, price = game._solve_pair, game._restricted_master, game._price

    def record(model, rows, owner, **kwargs):
        latest[:] = [rows, owner, solve_pair(model, rows, owner, **kwargs)]
        extracted.append(None)
        return latest[2]

    def priced(model, *args):
        # a round carried to the next resolution is priced again there
        cut_rows, viol = price(model, *args)
        extracted[-1] = game._extract(model, *latest, cut_rows)
        return cut_rows, viol

    def eager(*args, **kwargs):
        # the master's pricing only: the grid's stop rule also prices, in _separate
        game._price = priced
        try:
            return restricted_master(*args, **kwargs)
        finally:
            game._price = price

    game._solve_pair, game._restricted_master = record, eager
    try:
        return solve(model, *args), extracted
    finally:
        game._solve_pair, game._restricted_master = solve_pair, restricted_master


def dirac_start(model: MdpModel):
    """game._crash_start's fallback: the Dirac rows alone and no basis or
    point, so constraint generation's first LP starts cold.  Tests that pin
    that cold first round patch it in for the crash."""
    return (*game.build_grid(model).stacked(), None, None)


_CRASH_START = game._crash_start


def crash_lp_start(model: MdpModel):
    """game._crash_start without its closed-form point: the first round is
    always an LP, started from the crash basis.  Tests that pin that LP
    patch it in for the crash."""
    return (*_CRASH_START(model)[:3], None)


def closed_form_applies(model: MdpModel) -> bool:
    """Whether constraint generation's first round is the crash point itself,
    with no LP: the game pair verifies there over the crash rows."""
    rows, owner, _, point = _CRASH_START(model)
    if point is None:
        return False
    try:
        game._verify_pair(game._dual(model, rows, owner), *point)
    except LpError:
        return False
    return True


def counted_inverses(monkeypatch) -> list:
    """Route np.linalg.inv through a recorder; returns the list of the
    shapes it inverts, in call order."""
    inverses = []
    inv = np.linalg.inv

    def count(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", count)
    return inverses


def assert_same_solution(got, want) -> None:
    """Field for field, bit for bit equality of two (nested) dataclasses."""
    assert type(got) is type(want)
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if is_dataclass(a):
            assert_same_solution(a, b)
        elif isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert a == b, field.name


def sticky_ring(stay=(0.95, 0.5, 0.6, 0.4),
                cost=((1.0, 1.01), (0.1, 0.12), (0.3, 0.2), (0.5, 0.4))) -> MdpModel:
    """A 4-state lazy ring whose first state is sticky and dear: the worst
    case keeps the chain there, and the other states carry no long-run mass
    in the grid's solve to n = 4 and in congen's first round."""
    kernel = np.zeros((2, 4, 4))
    for u, shift in enumerate((0.0, 0.005)):
        for i in range(4):
            kernel[u, i, i] = stay[i] - shift
            kernel[u, i, (i + 1) % 4] = 1.0 - stay[i] + shift
    return MdpModel(("s0", "s1", "s2", "s3"), ("a0", "a1"), kernel, np.array(cost))


def trap_ring() -> MdpModel:
    """The benchmark's trap model (solvebench/models.py): the sticky ring
    with the other three states alike, whose grid solve to n = 8 leaves them
    without long-run mass."""
    return sticky_ring((0.95, 0.5, 0.5, 0.5), ((1.0, 1.01),) + ((0.1, 0.12),) * 3)


def check_dp(model: MdpModel, phi_star, v_vec):
    """The additive-form residuals (dp1, dp2) of build_certificate."""
    cert = build_certificate(model, phi_star, v_vec)
    return cert.residual_dp1, cert.residual_dp2


def common_support(model: MdpModel) -> np.ndarray:
    """(s, s) mask of I_i, the successors every action at state i reaches."""
    return np.logical_and.reduce(model.kernel > 0.0, axis=0)


def binds(model: MdpModel, i: int, q) -> bool:
    """Whether state i's V-constraint at kernel row q binds in the limit LP:
    q stays on I_i, where every action's reward is finite."""
    return not np.any((np.asarray(q) > 0.0) & ~common_support(model)[i])


def neg_inf_states(model: MdpModel) -> np.ndarray:
    """The graph test, (s,) bool: the states that cannot reach, along
    union-support edges, a cycle of the graph i -> j in I_i.  Their game
    value is -inf in the limit LP, whose dual is then infeasible."""
    s = model.num_states

    def closure(graph):  # reach in one or more steps, by repeated boolean squaring
        reach = graph.astype(np.int64)
        for _ in range(max(1, math.ceil(math.log2(max(s, 2))))):
            reach = np.minimum(reach + reach @ reach, 1)
        return reach.astype(bool)

    on_cycle = np.diagonal(closure(common_support(model))).copy()
    reach = closure(model.support) | np.eye(s, dtype=bool)
    return ~(reach & on_cycle).any(axis=1)


def common_support_model(model: MdpModel) -> MdpModel:
    """The reference of the limit LP on a model whose I_i are all nonempty:
    keep only I_i at each state, renormalize p_u(.|i) on it and add
    log p_u(I_i | i) to c(i, u).  On I_i, c(i,u) - KL(q || p_u) is then the
    reference's c'(i,u) - KL(q || p'_u), and its supports are shared."""
    common = common_support(model)
    assert common.any(axis=1).all()
    kept = np.where(common, model.kernel, 0.0)
    mass = kept.sum(axis=2)                          # (m, s): p_u(I_i | i)
    return MdpModel(model.states, model.actions, kept / mass[:, :, None],
                    model.cost + np.log(mass).T)


def primal_from_rows(model: MdpModel, rows: np.ndarray, owner: np.ndarray) -> GeneralLp:
    """The game primal over stacked kernel rows (owner: the state of each,
    nondecreasing): min sum(beta) over (V free, beta free, y >= 0 with
    simplex rows), with the dual's reward table.  Every row has a beta-row;
    only a row on its state's I_i has a V-row (binds).

    Row order: all beta-rows in stacked order, then the V-rows in the same
    order, then one simplex equality per state.
    """
    ctab = game._rewards(model, rows, owner)[0]
    s, m = model.num_states, model.num_actions
    n_ineq = rows.shape[0]
    v_rows = [k for k in range(n_ineq) if binds(model, int(owner[k]), rows[k])]
    n_v = len(v_rows)
    n_vars = 2 * s + s * m
    rows_ix, cols_ix, vals = [], [], []
    for k in range(n_ineq):
        i = int(owner[k])
        touched = sorted(set(union_support(model, i)) | {i})
        for j in touched:
            # beta-row: sum_j (delta_ij - q_j) beta_j >= 0
            rows_ix.append(k)
            cols_ix.append(s + j)
            vals.append((1.0 if j == i else 0.0) - rows[k, j])
    for r, k in enumerate(v_rows, start=n_ineq):
        i = int(owner[k])
        for j in sorted(set(union_support(model, i)) | {i}):
            # V-row: the beta-row's kernel coefficients on V ...
            rows_ix.append(r)
            cols_ix.append(j)
            vals.append((1.0 if j == i else 0.0) - rows[k, j])
        # ... + beta_i - sum_u ctilde(i,q,u) y_i(u)
        rows_ix.append(r)
        cols_ix.append(s + i)
        vals.append(1.0)
        for u in range(m):
            rows_ix.append(r)
            cols_ix.append(2 * s + i * m + u)
            vals.append(-ctab[k, u])
    for i in range(s):
        for u in range(m):
            rows_ix.append(n_ineq + n_v + i)
            cols_ix.append(2 * s + i * m + u)
            vals.append(1.0)
    objective = np.zeros(n_vars)
    objective[s:2 * s] = 1.0
    lower = np.zeros(n_vars)
    lower[: 2 * s] = -np.inf
    relations = [">="] * (n_ineq + n_v) + ["=="] * s
    rhs = np.zeros(n_ineq + n_v + s)
    rhs[n_ineq + n_v:] = 1.0
    return GeneralLp.build("min", objective, rows_ix, cols_ix, vals, relations, rhs, lower=lower)


def build_primal(model: MdpModel, grid: FullGrid) -> GeneralLp:
    """The finite-resolution game primal over the given dyadic grid."""
    return primal_from_rows(model, *grid.stacked())


def row_violations(model: MdpModel, beta, vvec, y, i: int, q) -> tuple[float, float]:
    """Violations of state i's beta- and V-constraints at kernel row q, with
    the scalar tilde_cost and weighted_sum; a row that leaves I_i has no
    V-constraint in the limit LP, so its violation is -inf."""
    bviol = float(q @ beta - beta[i])
    if not binds(model, i, q):
        return bviol, NEG_INF
    reward = weighted_sum(
        y[i], [tilde_cost(model, i, q, u) for u in range(model.num_actions)])
    return bviol, reward + float(q @ vvec) - vvec[i] - beta[i]


def gibbs_row(model: MdpModel, i: int, y_row, vvec):
    """State i's Gibbs row, state by state: the reference of game.gibbs_rows.

    On I_i, q(j) proportional to exp(V_j + sum_u y(u) log p(j|i,u)); None
    when I_i is empty.
    """
    mask = model.support[i].copy()
    for u in range(model.num_actions):
        mask &= model.kernel[u, i] > 0.0
    if not mask.any():
        return None
    z = vvec[mask].copy()
    for u in range(model.num_actions):
        z += y_row[u] * np.log(model.kernel[u, i][mask])
    z -= z.max()
    weights = np.exp(z)
    row = np.zeros(model.num_states)
    row[mask] = weights / weights.sum()
    return row


def priced_violation(model: MdpModel, i: int, row, y_row, vvec, beta_i) -> float:
    """State i's V-violation at one kernel row, as the LP prices it, from a
    one-row reward table; -inf where the row does not bind."""
    ctab, binding = game._rewards(model, row[None, :], np.array([i]))
    if not binding[0]:
        return NEG_INF
    return float(ctab[0] @ y_row) + float(row @ vvec) - vvec[i] - beta_i


def lattice_cut(model: MdpModel, i: int, y_row, vvec, beta_i, resolution: int):
    """State i's most violated V-constraint on the resolution's lattice, one
    state at a time: the reference of game._price at a resolution.  Returns (row,
    violation), a zero row violated by -inf where I_i is empty."""
    mask = common_support(model)[i]
    row = np.zeros(model.num_states)
    if not mask.any():
        return row, NEG_INF
    z = vvec[mask] + y_row @ np.log(model.kernel[:, i][:, mask])
    row[mask] = lattice_numerators(z / y_row.sum(), resolution) / 2.0**resolution
    return row, priced_violation(model, i, row, y_row, vvec, beta_i)


def sampled_violations(model: MdpModel, beta, vvec, y, count: int = 400,
                       seed: int = 12345) -> np.ndarray:
    """(count, s, 2) beta- and V-violations of kernel rows drawn from
    Dirichlet(1) on each state's union support, the full strategy class."""
    rng = np.random.default_rng(seed)
    s = model.num_states
    out = np.empty((count, s, 2))
    for k in range(count):
        for i in range(s):
            supp = list(union_support(model, i))
            q = np.zeros(s)
            q[supp] = rng.dirichlet(np.ones(len(supp)))
            out[k, i] = row_violations(model, beta, vvec, y, i, q)
    return out


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
    labels = _communicating_classes((p > 0.0)[:, :, None])[0][:, 0]
    classes = [tuple(int(j) for j in np.flatnonzero(labels == v)) for v in np.unique(labels)]
    recurrent = [p[list(c)][:, labels != c[0]].sum() == 0.0 for c in classes]
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
