"""The linear program of the single-controller ergodic game.

The maximizing player picks a kernel row per state (restricted to a dyadic
lattice at finite resolution), the minimizing player picks an action
distribution per state, and the payoff is the long-run average of the
KL-penalized reward.  Only the maximizer moves the chain, which is what makes
the exact LP formulation possible.

The primal has variables (V, beta, y) with one beta-constraint and one
V-constraint per (state, kernel row); the dual has occupation-style weights
(mu, nu) per (state, kernel row) and a vector w with sum(beta) = sum(w) at
the optimum.  Only the dual is built, over kernel rows that pricing adds (one
restricted master for both methods): it has 2s + s|U| rows, a new kernel row
is a new (mu, nu) column pair, and the primal solution is read off its
multipliers, exact at a simplex vertex.  Pricing a round needs only those
multipliers; the strategies are extracted (maximizer rows, purification)
once per solve, from the round it returns, in one stacked pass over its
rows; only a state that mixes rows or actions is taken alone.  A state's
maximizer row is read off its occupation weights where it carries long-run
mass; elsewhere those weights are not determined, and the row is the one
the last pricing call gave the state.  The primal lives in
tests/helpers.py, where the dual is checked to be its exact transpose.

A row that leaves I_i, the intersection of state i's action supports, is
worth -inf to every action whose support it leaves.  The LP is the limit of
rewarding it -M there as M -> inf: a vanishing weight on every action costs
the minimizer nothing, so such a row's V-constraint never binds.  It keeps
its beta-row (nu column), its mu column is fixed at 0, and its entries in the
one, finite, reward table are 0.  A state that cannot reach a cycle of the
graph i -> j in I_i along union-support edges has game value -inf in this
limit, and the dual comes back infeasible; with no such state, an infeasible
dual is a numerical failure.

Constraint generation starts from a crash point: at a pure policy found by
risk-sensitive policy iteration, the twisted kernel rows, the dual vertex
complementary slackness gives there and its basis, and the primal point the
Perron pair gives.  Where that point verifies, it is the first round and no
LP runs; otherwise the first LP starts from its basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import GuardError
from .grid import MAX_RESOLUTION, lattice_numerators, row_sums
from .lp import OPT_TOL, LinearProgram, LpError, solve as lp_solve
from .model import KernelMatrix, MdpModel, PurePolicy, StationaryPolicy
from .oracle import NEG_INF, _communicating_classes, perron_policy, tilde_cost

MU_MASS_TOL = 1e-10       # below this a state's maximizer row is its priced row
SUPPORT_TOL = 1e-9        # purification's candidate actions: y entries above this
# verification bounds for the extracted pair; slightly looser than the LP
# kernel's own tolerances because residuals are recomputed from unscaled data
GAME_FEAS_TOL = 1e-8
GAME_GAP_TOL = 1e-6
MONOTONE_TOL = 1e-7


class MonotonicityError(RuntimeError):
    """The per-resolution value trace moved the wrong way: grid refinement
    can only improve the maximizer, so a decrease signals an LP bug."""


@dataclass(frozen=True)
class GameSolution:
    """Solution of one finite-resolution game LP pair."""

    resolution: int | None
    value: np.ndarray                  # beta, the per-state game value
    potentials: np.ndarray             # V
    minimizer: StationaryPolicy        # y
    minimizer_pure: PurePolicy         # purified v*
    maximizer: KernelMatrix            # q* assembled from dual weights
    dual_w: np.ndarray
    duality_gap: float
    num_constraints: int               # inequality rows of the implied primal
    certified: bool = True
    rounds: int | None = None

    @property
    def lambda_bar(self) -> float:
        return float(self.value.max())


@dataclass(frozen=True)
class ConvergenceReport:
    """Value trace over a resolution sweep."""

    resolutions: tuple[int, ...]
    rounds: tuple[int, ...]            # restricted-master LP solves per resolution
    beta_trace: tuple[np.ndarray, ...]
    final: GameSolution
    stopping_reason: str
    feasibility_violation: float  # worst violation of the final triple, >= 0

    @property
    def lambda_bar(self) -> float:
        return float(self.final.value.max())


def tilde_cost_table(model: MdpModel, i: int | np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(num_rows, num_actions) table of KL-penalized rewards, -inf included.

    i is one state index, or an array with the state of each row.
    """
    m = model.num_actions
    out = np.empty((rows.shape[0], m))
    safe_rows = np.where(rows > 0.0, rows, 1.0)
    logq = np.log(safe_rows)
    for u in range(m):
        p = model.kernel[u, i]
        bad = ((rows > 0.0) & (p == 0.0)).any(axis=1)
        logp = np.log(np.where(p > 0.0, p, 1.0))
        kl = (rows * (logq - logp)).sum(axis=1)
        out[:, u] = model.cost[i, u] - kl
        out[bad, u] = NEG_INF
    return out


def _rewards(model: MdpModel, rows: np.ndarray, owner: np.ndarray):
    """The LP's reward table of the stacked rows, and which of them bind: a
    row that leaves its state's common action support (a -inf entry) binds
    no V-constraint, and its entries are 0."""
    table = tilde_cost_table(model, owner, rows)
    binds = np.isfinite(table).all(axis=1)
    return np.where(binds[:, None], table, 0.0), binds


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row k (b may be one vector for every row), bit for
    bit as those separate products: a stack of 1 x n by n x 1 products is
    one dot product each, while a matrix-vector product may round otherwise."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _dual(model: MdpModel, rows: np.ndarray, owner: np.ndarray) -> LinearProgram:
    """max sum(w) over (mu >= 0, nu >= 0, w free), one (mu, nu) column pair
    per stacked kernel row, with _rewards' table; mu is fixed at 0 where the
    row does not bind.

    Row order: s kernel-balance equalities (one per state, paired with V),
    s mass equalities (paired with beta), then s*|U| reward rows (paired
    with the y variables).  Column order: mu and nu in stacked row order,
    then w, one per state.
    """
    s, m = model.num_states, model.num_actions
    ctab, binds = _rewards(model, rows, owner)
    n_mu = rows.shape[0]
    mu_cols = np.arange(n_mu)
    # kernel balance delta_ij - q_j at state j's row of each mu column, one
    # triplet per coefficient as the LP sums it; nu repeats it in the mass rows
    balance = -rows
    balance[mu_cols, owner] += 1.0
    bal_cols, bal_rows = np.nonzero(balance)
    bal_vals = balance[bal_cols, bal_rows]
    reward_rows = 2 * s + np.arange(s * m).reshape(s, m)   # (state, action)
    # triplets: kernel balance (mu), its copy in the mass rows (nu), the
    # mass rows' 1 (mu), each mu column's rewards, and each w's -1
    return LinearProgram.build(
        np.repeat([0.0, 1.0], [2 * n_mu, s]),
        np.concatenate([bal_rows, s + bal_rows, s + owner, reward_rows[owner].ravel(),
                        reward_rows.ravel()]),
        np.concatenate([bal_cols, n_mu + bal_cols, mu_cols, np.repeat(mu_cols, m),
                        np.repeat(2 * n_mu + np.arange(s), m)]),
        np.concatenate([bal_vals, bal_vals, np.ones(n_mu), ctab.ravel(), np.full(s * m, -1.0)]),
        ("==",) * (2 * s) + (">=",) * (s * m), np.repeat([0.0, 1.0, 0.0], [s, s, s * m]),
        free=np.arange(2 * n_mu + s) >= 2 * n_mu,
        fixed=np.concatenate([~binds, np.zeros(n_mu + s, dtype=bool)]),
    )


def _residuals(index, coefs, terms, target, tight) -> np.ndarray:
    """The sums of terms by index less target: the excess where tight, else
    the shortfall, net of a float sum's rounding bound (eps times its count
    and its terms' magnitudes: one rounding of a term of 1e10 exceeds
    GAME_FEAS_TOL), over its largest coefficient, at least 1; NaN from NaN."""
    n = target.shape[0]
    scale = np.ones(n)
    np.maximum.at(scale, index, np.abs(coefs))
    excess = np.bincount(index, terms, minlength=n) - target
    rounding = (np.finfo(float).eps * np.bincount(index, minlength=n)
                * np.bincount(index, np.abs(terms), minlength=n))
    return np.maximum(np.where(tight, np.abs(excess), -excess) - rounding, 0.0) / scale


def _verify_pair(prog: LinearProgram, beta, vvec, y, x) -> float:
    """Checks both programs' scaled feasibility residuals and strong duality
    at the point x = (mu, nu, w) of _dual's program prog, read off its
    triplets: its rows at x, and the primal's rows as its reduced costs at
    (V, beta, -y), none at a fixed column (a row with no V-row).  Raises on
    breach, a NaN included; returns the duality gap.  The bounds need no
    check: lp.solve clips x to them, and _crash_start's point holds them."""
    duals = np.concatenate([vvec, beta, -y.ravel()])
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite point: NaN
        dual_viol = float(_residuals(prog.rows, prog.vals, prog.vals * x[prog.cols], prog.rhs,
                                     np.array(prog.relations) == "==").max())
        primal_viol = float(_residuals(prog.cols, prog.vals, prog.vals * duals[prog.rows],
                                       prog.objective, prog.free)[~prog.fixed].max())
    if not (primal_viol <= GAME_FEAS_TOL and dual_viol <= GAME_FEAS_TOL):
        raise LpError(f"game LP verification failed: primal residual {primal_viol:.3e}, "
                      f"dual residual {dual_viol:.3e}")
    gap = abs(float(beta.sum()) - float(x[-len(beta):].sum()))
    if not gap <= GAME_GAP_TOL:
        raise LpError(f"strong duality violated: |sum(beta) - sum(w)| = {gap:.3e}")
    return gap


def _neg_inf_states(model: MdpModel) -> np.ndarray:
    """(s,) bool: the states that cannot reach, along union-support edges, a
    cycle of the graph i -> j in I_i, where the game value is -inf."""
    graphs = np.stack([model.common, model.support], axis=2)
    _, reach = _communicating_classes(graphs)
    on_cycle = np.diagonal(reach[:, :, 0])
    return ~((reach[:, :, 1] | np.eye(model.num_states, dtype=bool)) & on_cycle).any(axis=1)


@dataclass(frozen=True)
class _Round:
    """One restricted-master round: the multipliers pricing reads, and what
    extraction and the next round's LP need of its optimum."""

    beta: np.ndarray
    vvec: np.ndarray
    y: np.ndarray                      # the minimizer, rows normalized
    x: np.ndarray                      # the dual point (mu, nu, w)
    basis: np.ndarray                  # its basis, in lp.solve's column layout
    binds: np.ndarray                  # the rows with a V-constraint
    gap: float                         # verified at the point


def _solve_pair(model: MdpModel, rows: np.ndarray, owner: np.ndarray, *,
                resolution, basis=None, point=None) -> _Round:
    """Solve the game LP pair over stacked kernel rows; owner, nondecreasing,
    is the state of each row, and every state owns at least one row.

    point, if given, is a candidate optimum (beta, V, y, x) whose dual
    vertex has the basis basis; where the pair verifies at it, it is the
    round and no LP runs.  Otherwise basis, if given, starts the dual's
    solve (see lp.solve), and the pair is verified at the dual's optimal
    vertex.  resolution, None under constraint generation, names the LP in
    errors.
    """
    s, m = model.num_states, model.num_actions
    prog = _dual(model, rows, owner)
    binds = ~prog.fixed[:owner.shape[0]]
    if point is not None:
        try:
            return _Round(*point, basis, binds, _verify_pair(prog, *point))
        except LpError:
            pass  # not an optimum of this LP: solve it from basis
    where = "of constraint generation" if resolution is None else f"at resolution {resolution}"
    try:
        sol = lp_solve(prog, basis=basis)
    except LpError as exc:
        raise LpError(f"game LP solve {where} failed: {exc}") from exc
    if sol.status == "infeasible":
        if not _neg_inf_states(model).any():
            raise LpError(f"game LP {where} came back infeasible, yet every state reaches a "
                          "cycle of the common action supports: a numerical failure of the LP")
        raise LpError(f"game LP {where} came back infeasible: the game value is -inf at "
                      "some state, as mixed strategies cut every cycle of the common action "
                      "supports it reaches; `riskmdp oracle` gives the pure value")
    if sol.status != "optimal":
        raise LpError(f"game LP {where} came back {sol.status}")
    vvec, beta = sol.duals[:s], sol.duals[s:2 * s]
    y = np.clip(-sol.duals[2 * s:].reshape(s, m), 0.0, None)
    sums = y.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        raise LpError("dual multipliers did not yield a minimizer policy")
    y /= sums
    gap = _verify_pair(prog, beta, vvec, y, sol.x)
    return _Round(beta, vvec, y, sol.x, sol.basis, binds, gap)


def _extract(model: MdpModel, rows: np.ndarray, owner: np.ndarray, rnd: _Round,
             priced: np.ndarray, resolution=None) -> GameSolution:
    """The game solution of a round: the maximizer rows and the purified
    minimizer.  priced holds each state's row from the pricing call at the
    round's (beta, V, y)."""
    s, m = model.num_states, model.num_actions
    n_mu = rows.shape[0]
    beta, vvec, y, x = rnd.beta, rnd.vvec, rnd.y, rnd.x
    mu, nu, w = x[:n_mu], x[n_mu:2 * n_mu], x[2 * n_mu:]

    # Maximizer rows come from the occupation weights where a state carries
    # mu mass, dropping weights of at most MU_MASS_TOL of it (rounding noise
    # on rows that are not tight); without it they are a degenerate face of
    # the dual optimum, and the priced row stands in.  nu takes over only
    # where I_i is empty (the priced row is zero), as no row there has a
    # V-constraint (x is clipped to its bounds, so nu >= 0, and the verified
    # mass balance keeps mu mass + nu mass >= 1 - GAME_FEAS_TOL at every
    # state).  The minimizer is purified at the extracted row: among support
    # actions (y rows sum to 1, so there is one), the one whose V-constraint
    # there is tightest.  One stacked pass (owner is nondecreasing) settles
    # every state; only those that mix rows (or nu) or actions take a loop
    qstar = priced.copy()
    positive = mu > 0.0
    count = np.bincount(owner, positive, minlength=s)
    # a block with one positive mu sums to it in any order, and the mixture
    # puts 1.0 on that row alone: such a state takes the row as it is
    alone = (count == 1) & (np.bincount(owner, mu, minlength=s) > MU_MASS_TOL)
    qstar[alone] = rows[positive & alone[owner]]
    bounds = np.searchsorted(owner, np.arange(s + 1))
    for i in np.flatnonzero((count > 1) | ~model.common.any(axis=1)):
        block = slice(bounds[i], bounds[i + 1])
        mass = mu[block].sum()
        if mass > MU_MASS_TOL:
            weights = np.where(mu[block] > MU_MASS_TOL * mass, mu[block], 0.0)
            qstar[i] = weights / weights.sum() @ rows[block]
        elif not model.common[i].any():
            qstar[i] = nu[block] / nu[block].sum() @ rows[block]
    # a state with one support action (its largest y) takes it, as the
    # scan would, whether that action's slack is finite or not
    choice = y.argmax(axis=1)
    for i in np.flatnonzero((y > SUPPORT_TOL).sum(axis=1) > 1):
        slacks = np.full(m, np.inf)
        for u in np.flatnonzero(y[i] > SUPPORT_TOL):
            val = tilde_cost(model, i, qstar[i], u)
            if val != NEG_INF:
                slacks[u] = vvec[i] + beta[i] - (val + float(qstar[i] @ vvec))
        if np.isfinite(slacks).any():
            choice[i] = np.argmin(slacks)

    return GameSolution(
        resolution=resolution,
        value=beta,
        potentials=vvec,
        minimizer=StationaryPolicy(y),
        minimizer_pure=PurePolicy(tuple(choice)),
        maximizer=KernelMatrix.for_model(model, qstar),
        dual_w=w,
        duality_gap=rnd.gap,
        num_constraints=n_mu + int(rnd.binds.sum()),
    )


def gibbs_rows(model: MdpModel, y: np.ndarray, vvec: np.ndarray, resolution=None) -> np.ndarray:
    """Each state's most-violating kernel row for the V-constraint family,
    (s, s), exact or on the resolution's lattice.  Only rows on I_i, the
    intersection of state i's action supports, bind (an empty I_i gives a
    zero row), and there a row q earns sum_u y(u) (c(i,u) - KL(q || p_u)):
    w (q.z - q.log q) plus a constant, with w = sum_u y(u) and
    z = (V + sum_u y(u) log p_u) / w on I_i.  Its exact maximizer is
    q(j) proportional to exp(V_j + sum_u y(u) log p(j|i,u))."""
    mask = model.common
    z = np.tile(vvec, (len(y), 1))
    for u, p in enumerate(model.kernel):
        z += y[:, u, None] * np.log(np.where(p > 0.0, p, 1.0))
    if resolution is not None:
        z = np.where(mask, z / y.sum(axis=1, keepdims=True), NEG_INF)
        return lattice_numerators(z, resolution) / 2.0**resolution
    z -= np.where(mask, z, NEG_INF).max(axis=1, keepdims=True)
    rows = np.exp(z, out=np.zeros_like(z), where=mask)
    return np.divide(rows, row_sums(rows, mask)[:, None], out=rows, where=mask)


def _price(model: MdpModel, beta, vvec, y, resolution=None):
    """(rows, violations): each state's most violated V-constraint, gibbs_rows'
    at the resolution, as the LP prices it; -inf at an empty I_i (a zero row)."""
    rows = gibbs_rows(model, y, vvec, resolution)
    ctab = tilde_cost_table(model, np.arange(model.num_states), rows)
    viol = _rowdot(ctab, y) + _rowdot(rows, vvec) - vvec - beta
    return rows, np.where(model.common.any(axis=1), viol, NEG_INF)


def _separate(model: MdpModel, beta: np.ndarray, vvec: np.ndarray, y: np.ndarray):
    """Most violated semi-infinite constraint of each family at every state.

    Returns (jbest, beta_violation, rows, v_violation), one entry or row per
    state i.  The beta-family's worst row is the Dirac row at the first
    union-support successor jbest maximizing beta (the maximum of q.beta over
    a support simplex sits at a vertex), violated by beta[jbest] - beta[i];
    the V-family's is _price's exact one.
    """
    jbest = np.where(model.support, beta, NEG_INF).argmax(axis=1)
    return jbest, beta[jbest] - beta, *_price(model, beta, vvec, y)


class _Seed(NamedTuple):
    rows: np.ndarray
    owner: np.ndarray

    @property
    def total_rows(self) -> int:   # read by the benchmark's tracer alone
        return self.owner.shape[0]


def build_grid(model: MdpModel) -> _Seed:
    """The Dirac seed both restricted masters start from, stacked (rows,
    owner): one Dirac row per union-support successor, last successor
    first, state by state.  They hold every state's worst beta-constraint
    (the maximum of q.beta over a support simplex sits at a vertex).  The
    name stays for the benchmark's tracer alone, which wraps game.build_grid
    and counts its total_rows."""
    owner, last = np.nonzero(model.support[:, ::-1])
    return _Seed(np.eye(model.num_states)[model.num_states - 1 - last], owner)


def _restricted_master(model: MdpModel, master, tol: float, resolution=None,
                       max_solves=None, basis=None, point=None):
    """Grow master = (rows, owner, round), the round None before the first
    solve (which takes point, if given and verified, or starts from basis,
    if given; see _solve_pair), until _price at the resolution (None: exact
    rows), one row and violation per state, adds no row: one violated by
    more than tol and not close to a row its state holds.  A new row goes
    after its state's old ones and the round's basis follows (w, slacks and
    artificials shift by two per row), so it starts the next solve.  Only
    the latest round is kept.  Returns the master, the rows pricing gave its
    round, the rounds made (a verified point counts as one), and whether
    pricing (rather than max_solves) ended them.
    """
    # close in max-norm: lattice rows are exact dyadics, and from n ~ 40 two
    # distinct ones can lie within 1e-12, so there only an equal row is not new
    close = 1e-12 if resolution is None else 0.0
    rows, owner, rnd = master
    solves = int(rnd is None)
    if rnd is None:
        rnd = _solve_pair(model, rows, owner, resolution=resolution, basis=basis, point=point)
    while True:
        cut_rows, viol = _price(model, rnd.beta, rnd.vvec, rnd.y, resolution)
        near = np.abs(rows - cut_rows[owner]).max(axis=1) <= close
        fresh = np.flatnonzero((viol > tol) & (np.bincount(owner, near, minlength=len(viol)) == 0))
        if not fresh.size or solves == max_solves:
            return (rows, owner, rnd), cut_rows, solves, not fresh.size
        n_mu, added, basis = owner.shape[0], fresh.size, rnd.basis
        rnd = None  # released before the next solve, which needs only its basis
        owner = np.concatenate([owner, fresh])
        order = np.argsort(owner, kind="stable")
        rows, owner = np.vstack([rows, cut_rows[fresh]])[order], owner[order]
        place = np.argsort(order)[:n_mu]
        basis = np.select([basis < n_mu, basis < 2 * n_mu],
                          [place[basis % n_mu], n_mu + added + place[basis % n_mu]],
                          basis + 2 * added)
        rnd = _solve_pair(model, rows, owner, resolution=resolution, basis=basis)
        solves += 1


def solve_sequence(model: MdpModel, n_start: int = 2, n_max: int = 8,
                   stop_tol: float = 1e-4) -> ConvergenceReport:
    """Sweep resolutions n_start..n_max, tracking the value trace.

    One restricted master grows from the Dirac rows, priced on lattice n
    (_price at resolution n), until no lattice row is violated beyond the
    simplex's optimality tolerance: the LP over the whole lattice, whose
    implied primal's rows num_constraints counts: a beta-row per lattice
    row, a V-row per one on I_i.  Lattice n lies in lattice n + 1, so n + 1
    first prices n's master.  n past MAX_RESOLUTION: GuardError.

    The trace must be componentwise nondecreasing: refining the grid only
    enlarges the maximizer's strategy set, so the value can only go up.
    A decrease beyond MONOTONE_TOL is fatal.  Every resolution's (beta, V, y)
    triple is checked against the whole strategy class by exact separation
    (_separate), and the sweep stops early once the sup-norm value step falls
    below stop_tol and no constraint is violated by more than 10 * stop_tol.
    The final triple's worst violation, clipped at 0, is recorded on the
    report either way.
    """
    if not 0 <= n_start <= n_max:
        raise ValueError("need 0 <= n_start <= n_max")
    if n_max > MAX_RESOLUTION:
        raise GuardError(f"resolution {n_max} exceeds {MAX_RESOLUTION}, the finest "
                         "whose lattice rows are exact in double precision")
    trace, resolutions, rounds = [], [], []
    reason = "n_max"
    master = (*build_grid(model), None)
    for n in range(n_start, n_max + 1):
        master, priced, solves, _ = _restricted_master(model, master, OPT_TOL, n)
        rnd = master[2]
        if trace:
            drop = float((trace[-1] - rnd.beta).max())
            if drop > MONOTONE_TOL:
                raise MonotonicityError(
                    f"value decreased by {drop:.3e} from resolution "
                    f"{resolutions[-1]} to {n}"
                )
        trace.append(rnd.beta)
        resolutions.append(n)
        rounds.append(solves)
        _, bviol, _, vviol = _separate(model, rnd.beta, rnd.vvec, rnd.y)
        worst = max(0.0, float(np.maximum(bviol, vviol).max()))
        # stop early only once the solution is also near-feasible for the
        # full strategy class; a converged value can hide coarse potentials
        if (len(trace) >= 2 and float(np.abs(trace[-1] - trace[-2]).max()) < stop_tol
                and worst <= 10.0 * stop_tol):
            reason = "stop_tol"
            break

    # lattice points on each state's union support (beta-rows) and on I_i (V-rows)
    sizes = [*model.support.sum(axis=1), *model.common.sum(axis=1)]
    implied = sum(math.comb(2**n + k - 1, k - 1) for k in sizes if k > 0)
    return ConvergenceReport(
        resolutions=tuple(resolutions),
        rounds=tuple(rounds),
        beta_trace=tuple(trace),
        final=replace(_extract(model, *master, priced, n), num_constraints=implied),
        stopping_reason=reason,
        feasibility_violation=worst,
    )


def _crash_start(model: MdpModel):
    """Constraint generation's first working set, and the point and basis
    its first round starts from: (rows, owner, basis, point).

    At perron_policy's pure policy v and log Perron vector h, state i's
    twisted row q(j) proportional to p(j|i,v_i) h_j goes after its Dirac rows
    (a one-successor one is among them).  The basis is the dual vertex that
    complementary slackness gives there, in lp.solve's column layout:

    - every w;
    - mu on each twisted row (its value s pi, with pi the invariant law of
      the twisted chain Q);
    - nu on the twisted row of every state but r (its value nu - t pi, with
      (I - Q^T) nu = 1 - s pi, and r and t the argmin and min of nu / pi);
    - the slack of each reward row (i, u) but the smallest at i's twisted row;
    - the artificial of r's kernel-balance row, which is redundant.

    point = (beta, V, y, x) is that vertex, x = (mu, nu, w) with w_i = s pi_i
    times the smallest reward at i's twisted row, and the primal point the
    Perron pair gives: V = log h, y = e_v, and beta = lambda everywhere,
    lambda the largest twisted row's V-row value (each is v's Perron ratio
    at its state), which keeps every V-row of any kernel row feasible.

    Where perron_policy gives no h (it met a reducible chain or an inexact
    h), a twisted row leaves I_i (or I_i is empty) so that it binds no
    V-constraint, or pi is not positive, the Dirac rows come alone and basis
    and point are None.
    """
    rows, owner = build_grid(model)
    s, m = model.num_states, model.num_actions
    states = np.arange(s)
    choice, log_h = perron_policy(model)
    if log_h is None or not np.array_equal(model.kernel[choice, states] > 0.0, model.common):
        return rows, owner, None, None
    pure = np.eye(m)[choice]
    twisted = gibbs_rows(model, pure, log_h)
    # the balance equations (I - Q^T) x = b, the first replaced by sum(x) = b_0
    balance = np.eye(s) - twisted.T
    balance[0] = 1.0
    try:
        pi = np.linalg.solve(balance, np.eye(s)[0])
        nu = np.linalg.solve(balance, np.concatenate([[0.0], 1.0 - s * pi[1:]]))
    except np.linalg.LinAlgError:
        return rows, owner, None, None
    if not (pi > 0.0).all():
        return rows, owner, None, None
    with np.errstate(over="ignore"):   # nu_i / pi_i overflows where pi_i is subnormal
        r = int(np.argmin(nu / pi))
    new = (twisted > 0.0).sum(axis=1) > 1
    owner = np.concatenate([owner, states[new]])
    order = np.argsort(owner, kind="stable")
    rows, owner = np.vstack([rows, twisted[new]])[order], owner[order]
    at = np.flatnonzero((rows == twisted[owner]).all(axis=1))
    n_mu = len(owner)
    n = 2 * n_mu + s                              # structural columns, then slacks
    table = tilde_cost_table(model, states, twisted)
    low = table.argmin(axis=1)
    slack = np.ones((s, m), dtype=bool)
    slack[states, low] = False
    basis = np.concatenate([at, n_mu + np.delete(at, r), 2 * n_mu + states,
                            n + np.flatnonzero(slack), [n + s * m + r]])
    x = np.zeros(n)
    x[at] = s * pi
    x[n_mu + at] = np.maximum(nu - nu[r] / pi[r] * pi, 0.0)
    x[2 * n_mu:] = s * pi * table[states, low]
    beta = np.full(s, float((table[states, choice] + twisted @ log_h - log_h).max()))
    return rows, owner, np.sort(basis), (beta, log_h, pure, x)


def solve_congen(model: MdpModel, inner_tol: float = 1e-6,
                 max_rounds: int = 50) -> GameSolution:
    """Constraint-generation solve of the semi-infinite game programs: the
    restricted master priced by exact Gibbs rows (_price with no resolution;
    a row within 1e-12 of one its state holds is not new), started from
    _crash_start's rows, point and basis.  Terminates when no constraint is
    violated by more than inner_tol; hitting max_rounds (the first round
    counts, LP or not) returns the last iterate marked uncertified.
    """
    rows, owner, basis, point = _crash_start(model)
    master, priced, solves, done = _restricted_master(
        model, (rows, owner, None), inner_tol, max_solves=max_rounds, basis=basis, point=point)
    return replace(_extract(model, *master, priced), certified=done, rounds=solves)
