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
once per solve, from the round it returns.  A state's maximizer row is read
off its occupation weights where it carries long-run mass; elsewhere those
weights are not determined, and the row is the one the last pricing call
gave the state.  The primal lives in tests/helpers.py, where the dual is
checked to be its exact transpose.

A row that leaves I_i, the intersection of state i's action supports, is
worth -inf to every action whose support it leaves.  The LP is the limit of
rewarding it -M there as M -> inf: a vanishing weight on every action costs
the minimizer nothing, so such a row's V-constraint never binds.  It keeps
its beta-row (nu column), its mu column is fixed at 0, and its entries in the
one, finite, reward table are 0.  A state that cannot reach a cycle of the
graph i -> j in I_i along union-support edges has game value -inf in this
limit, and the dual comes back infeasible.

Constraint generation starts from a crash point: at a pure policy found by
risk-sensitive policy iteration, the twisted kernel rows, the dual vertex
complementary slackness gives there and its basis, and the primal point the
Perron pair gives.  Where that point verifies, it is the first round and no
LP runs; otherwise the first LP starts from its basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GuardError
from .grid import MAX_RESOLUTION, build_grid, lattice_numerators
from .lp import OPT_TOL, LinearProgram, LpError, solve as lp_solve
from .model import KernelMatrix, MdpModel, PurePolicy, StationaryPolicy
from .oracle import NEG_INF, perron_policy, tilde_cost

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


def _dual(model: MdpModel, rows: np.ndarray, owner: np.ndarray,
          ctab: np.ndarray, binds: np.ndarray) -> LinearProgram:
    """max sum(w) over (mu >= 0, nu >= 0, w free), one (mu, nu) column pair
    per stacked kernel row; mu is fixed at 0 where the row does not bind.

    Row order: s kernel-balance equalities (one per state, paired with V),
    s mass equalities (paired with beta), then s*|U| reward rows (paired
    with the y variables).
    """
    s, m = model.num_states, model.num_actions
    n_mu = rows.shape[0]
    mu_cols = np.arange(n_mu)
    a = np.zeros((2 * s + s * m, 2 * n_mu + s))
    # kernel balance, delta_ij - q_j, at state j's row of each mu column
    a[:s, :n_mu] -= rows.T
    a[owner, mu_cols] += 1.0
    a[s + owner, mu_cols] = 1.0                    # mass balance, mu part
    a[s:2 * s, n_mu:2 * n_mu] = a[:s, :n_mu]      # mass balance, nu part
    a[2 * s + owner[:, None] * m + np.arange(m), mu_cols[:, None]] = ctab
    a[2 * s + np.arange(s * m), 2 * n_mu + np.arange(s * m) // m] = -1.0
    is_w = np.arange(a.shape[1]) >= 2 * n_mu
    return LinearProgram(
        "max", is_w.astype(float), a, ("==",) * (2 * s) + (">=",) * (s * m),
        np.repeat([0.0, 1.0, 0.0], [s, s, s * m]),
        lower=np.where(is_w, -np.inf, 0.0),
        upper=np.concatenate([np.where(binds, np.inf, 0.0), np.full(n_mu + s, np.inf)]),
    )


def _verify_pair(model, rows, owner, ctab, binds, beta, vvec, y, x) -> float:
    """Checks the scaled feasibility residuals of both programs and strong
    duality at the dual point x = (mu, nu, w); raises on breach, returns the
    duality gap."""
    s, m = model.num_states, model.num_actions
    n_mu = owner.shape[0]
    mu, nu, w = x[:n_mu], x[n_mu:2 * n_mu], x[2 * n_mu:]
    # primal: one beta-row per kernel row, one V-row per binding one
    beta_resid = rows @ beta - beta[owner]
    v_resid = _rowdot(ctab, y[owner]) + rows @ vvec - vvec[owner] - beta[owner]
    v_scale = np.maximum(1.0, np.abs(ctab).max(axis=1))
    primal_viol = max(float(beta_resid.max()),
                      float((v_resid / v_scale)[binds].max(initial=-np.inf)))
    # dual: kernel and mass balance per state, then one reward row per
    # (state, action), scaled by the largest coefficient on it; the bounds
    # need no check: lp.solve clips x to them, and _crash_start's point
    # holds them by construction (mu only on binding rows, mu and nu >= 0)
    mu_mass = np.bincount(owner, mu, minlength=s)
    nu_mass = np.bincount(owner, nu, minlength=s)
    reward = np.zeros((s, m))
    np.add.at(reward, owner, ctab * mu[:, None])
    r_scale = np.ones((s, m))
    np.maximum.at(r_scale, owner, np.abs(ctab))
    dual_viol = max(float(np.abs(mu_mass - rows.T @ mu).max()),
                    float(np.abs(nu_mass - rows.T @ nu + mu_mass - 1.0).max()),
                    float(((w[:, None] - reward) / r_scale).max()))
    if primal_viol > GAME_FEAS_TOL or dual_viol > GAME_FEAS_TOL:
        raise LpError(
            f"game LP verification failed: primal residual {primal_viol:.3e}, "
            f"dual residual {dual_viol:.3e}"
        )
    gap = abs(float(beta.sum()) - float(w.sum()))
    if gap > GAME_GAP_TOL:
        raise LpError(f"strong duality violated: |sum(beta) - sum(w)| = {gap:.3e}")
    return gap


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
    ctab, binds = _rewards(model, rows, owner)
    if point is not None:
        try:
            return _Round(*point, basis, binds,
                          _verify_pair(model, rows, owner, ctab, binds, *point))
        except LpError:
            pass  # not an optimum of this LP: solve it from basis
    where = "of constraint generation" if resolution is None else f"at resolution {resolution}"
    try:
        sol = lp_solve(_dual(model, rows, owner, ctab, binds), basis=basis)
    except LpError as exc:
        raise LpError(f"game LP solve {where} failed: {exc}") from exc
    if sol.status == "infeasible":
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
    gap = _verify_pair(model, rows, owner, ctab, binds, beta, vvec, y, sol.x)
    return _Round(beta, vvec, y, sol.x, sol.basis, binds, gap)


def _extract(model: MdpModel, rows: np.ndarray, owner: np.ndarray, rnd: _Round,
             priced: np.ndarray, resolution=None) -> GameSolution:
    """The game solution of a round: the maximizer rows and the purified
    minimizer.  priced holds each state's row from the pricing call at the
    round's (beta, V, y), a zero row at an empty I_i."""
    s, m = model.num_states, model.num_actions
    n_mu = rows.shape[0]
    beta, vvec, y, x = rnd.beta, rnd.vvec, rnd.y, rnd.x
    mu, nu, w = x[:n_mu], x[n_mu:2 * n_mu], x[2 * n_mu:]

    # maximizer rows from the occupation weights where a state carries mu
    # mass, dropping weights of at most MU_MASS_TOL of it (rounding noise
    # on rows that are not tight); without it they are a degenerate face of
    # the dual optimum, and the priced row stands in.  nu takes over only
    # where that row is zero, as no row there has a V-constraint (x is
    # clipped to its bounds, so nu >= 0, and the verified mass balance keeps
    # mu mass + nu mass >= 1 - GAME_FEAS_TOL at every state)
    qstar = priced.copy()
    for i in range(s):
        mine = owner == i
        mass = mu[mine].sum()
        if mass > MU_MASS_TOL:
            weights = np.where(mu[mine] > MU_MASS_TOL * mass, mu[mine], 0.0)
            qstar[i] = weights / weights.sum() @ rows[mine]
        elif not priced[i].any():
            qstar[i] = nu[mine] / nu[mine].sum() @ rows[mine]
    maximizer = KernelMatrix.for_model(model, qstar)

    # purify the minimizer: among support actions, take the one whose
    # V-constraint at the extracted maximizer row is tightest
    choice = []
    for i in range(s):
        slacks = np.full(m, np.inf)
        support = np.flatnonzero(y[i] > SUPPORT_TOL)
        if len(support) == 0:
            support = [int(np.argmax(y[i]))]
        for u in support:
            val = tilde_cost(model, i, qstar[i], u)
            if val == NEG_INF:
                continue
            slacks[u] = vvec[i] + beta[i] - (val + float(qstar[i] @ vvec))
        choice.append(int(np.argmin(slacks)) if np.isfinite(slacks).any()
                      else int(np.argmax(y[i])))

    return GameSolution(
        resolution=resolution,
        value=beta,
        potentials=vvec,
        minimizer=StationaryPolicy(y),
        minimizer_pure=PurePolicy(tuple(choice)),
        maximizer=maximizer,
        dual_w=w,
        duality_gap=rnd.gap,
        num_constraints=n_mu + int(rnd.binds.sum()),
    )


def gibbs_rows(model: MdpModel, y: np.ndarray, vvec: np.ndarray) -> np.ndarray:
    """Each state's most-violating kernel row for the V-constraint family, (s, s).

    Only rows on I_i, the intersection of state i's action supports, bind,
    and there q(j) proportional to exp(V_j + sum_u y(u) log p(j|i,u)) is the
    exact concave maximizer; an empty I_i gives a zero row.
    """
    mask = (model.kernel > 0.0).all(axis=0)
    z = np.tile(vvec, (len(y), 1))
    for u, p in enumerate(model.kernel):
        z += y[:, u, None] * np.log(np.where(p > 0.0, p, 1.0))
    z -= np.where(mask, z, NEG_INF).max(axis=1, keepdims=True)
    rows = np.exp(z, out=np.zeros_like(z), where=mask)
    # a row's k terms are summed alone: zeros between them regroup numpy's pairwise sum
    sizes = mask.sum(axis=1)
    for k in set(sizes.tolist()) - {0}:
        rows[sizes == k] /= rows[sizes == k][mask[sizes == k]].reshape(-1, k).sum(axis=1)[:, None]
    return rows


def _v_violations(model: MdpModel, rows, beta, vvec, y) -> np.ndarray:
    """Each state's V-constraint violation at its row of rows, (s, s), as the
    LP prices it; -inf where the row is zero (an empty I_i)."""
    states = np.arange(model.num_states)
    viol = (_rowdot(tilde_cost_table(model, states, rows), y) + _rowdot(rows, vvec)
            - vvec - beta)
    return np.where(rows.any(axis=1), viol, NEG_INF)


def _separate(model: MdpModel, beta: np.ndarray, vvec: np.ndarray, y: np.ndarray):
    """Most violated semi-infinite constraint of each family at every state.

    Returns (jbest, beta_violation, rows, v_violation), one entry or row per
    state i.  The beta-family's worst row is the Dirac row at the first
    union-support successor jbest maximizing beta (the maximum of q.beta over
    a support simplex sits at a vertex), violated by beta[jbest] - beta[i];
    the V-family's is gibbs_rows', violated by -inf where that row is zero.
    """
    jbest = np.where(model.support, beta, NEG_INF).argmax(axis=1)
    rows = gibbs_rows(model, y, vvec)
    return jbest, beta[jbest] - beta, rows, _v_violations(model, rows, beta, vvec, y)


def _lattice_cuts(model: MdpModel, beta: np.ndarray, vvec: np.ndarray, y: np.ndarray,
                  resolution: int):
    """Each state's most violated V-constraint on the resolution's lattice;
    returns (rows, violations), a zero row violated by -inf at an empty I_i.

    At state i a row q on I_i earns sum_u y(u) (c(i,u) - KL(q || p_u)), which
    is w (q.z - q.log q) plus a constant, with w = sum_u y(u) and
    z = (V + sum_u y(u) log p_u) / w on I_i.
    """
    common = (model.kernel > 0.0).all(axis=0)
    rows = np.zeros((model.num_states,) * 2)
    for i in np.flatnonzero(common.any(axis=1)):
        mask = common[i]
        z = vvec[mask] + y[i] @ np.log(model.kernel[:, i][:, mask])
        rows[i, mask] = lattice_numerators(z / y[i].sum(), resolution) / 2.0**resolution
    return rows, _v_violations(model, rows, beta, vvec, y)


def _restricted_master(model: MdpModel, master, price, tol: float, close: float,
                       resolution=None, max_solves=None, basis=None, point=None):
    """Grow master = (rows, owner, round), the round None before the first
    solve (which takes point, if given and verified, or starts from basis,
    if given; see _solve_pair), until price(beta, V, y), one
    row and violation per state, adds no row: one violated by more than tol
    and further than close (max-norm) from its state's rows.  A new row goes
    after its state's old ones and the round's basis follows (w, slacks and
    artificials shift by two per row), so it starts the next solve.  Only
    the latest round is kept.  Returns the master, the rows pricing gave its
    round, the rounds made (a verified point counts as one), and whether
    pricing (rather than max_solves) ended them.
    """
    rows, owner, rnd = master
    solves = int(rnd is None)
    if rnd is None:
        rnd = _solve_pair(model, rows, owner, resolution=resolution, basis=basis, point=point)
    while True:
        cut_rows, viol = price(rnd.beta, rnd.vvec, rnd.y)
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

    One restricted master grows from the Dirac rows until no lattice row is
    violated beyond the simplex's optimality tolerance: the LP over the whole
    lattice, whose implied primal's rows num_constraints counts: a beta-row
    per lattice row, a V-row per one on I_i.  Lattice n lies in lattice
    n + 1, so n + 1 first prices n's master.  n past MAX_RESOLUTION: GuardError.

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
    master = (*build_grid(model).stacked(), None)
    for n in range(n_start, n_max + 1):
        master, priced, solves, _ = _restricted_master(
            model, master, lambda beta, vvec, y, n=n: _lattice_cuts(model, beta, vvec, y, n),
            OPT_TOL, 0.0, n)
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
    sizes = [*model.support.sum(axis=1), *(model.kernel > 0.0).all(axis=0).sum(axis=1)]
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
    rows, owner = build_grid(model).stacked()
    s, m = model.num_states, model.num_actions
    states = np.arange(s)
    choice, log_h = perron_policy(model)
    if log_h is None or not np.array_equal(model.kernel[choice, states] > 0.0,
                                           (model.kernel > 0.0).all(axis=0)):
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
    restricted master priced by exact separation (gibbs_rows, via _separate; a
    cut within 1e-12 of a row its state holds is not new), started from
    _crash_start's rows, point and basis.  Terminates when no constraint is
    violated by more than inner_tol; hitting max_rounds (the first round
    counts, LP or not) returns the last iterate marked uncertified.
    """
    rows, owner, basis, point = _crash_start(model)
    master, priced, solves, done = _restricted_master(
        model, (rows, owner, None), lambda *triple: _separate(model, *triple)[2:],
        inner_tol, 1e-12, max_solves=max_rounds, basis=basis, point=point)
    return replace(_extract(model, *master, priced), certified=done, rounds=solves)
