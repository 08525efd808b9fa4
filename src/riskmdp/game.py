"""Primal/dual linear programs for the single-controller ergodic game.

The maximizing player picks a kernel row per state (restricted to a dyadic
grid at finite resolution), the minimizing player picks an action
distribution per state, and the payoff is the long-run average of the
KL-penalized reward.  Only the maximizer moves the chain, which is what makes
the exact LP formulation possible.

The primal has variables (V, beta, y) with one beta-constraint and one
V-constraint per (state, grid row); the dual has occupation-style weights
(mu, nu) per (state, grid row) and a vector w with sum(beta) = sum(w) at the
optimum.  Both programs are built explicitly, but a solve runs the
row-compact dual orientation (2s + s|U| rows regardless of grid size) and
reads the primal solution off the dual multipliers, which is exact at a
simplex vertex.

Unattainable rewards (absolute continuity failures) enter the LPs through a
large negative sentinel coefficient rather than -inf; such constraints are
slack at any optimum of the shipped model scale, matching the extended-real
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .extreal import NEG_INF, weighted_sum
from .grid import GridSpec, build_grid
from .lp import LinearProgram, LpError, solve as lp_solve
from .model import KernelMatrix, MdpModel, PurePolicy, StationaryPolicy, union_support
from .oracle import tilde_cost

SENTINEL = 1.0e6
MU_MASS_TOL = 1e-10       # below this the nu-weights take over in extraction
SUPPORT_TOL = 1e-9        # y entries above this count as support actions
# verification bounds for the extracted pair; slightly looser than the LP
# kernel's own tolerances because residuals are recomputed from unscaled
# data and sentinel columns amplify roundoff
GAME_FEAS_TOL = 1e-8
GAME_GAP_TOL = 1e-6
MONOTONE_TOL = 1e-7
FEAS_SAMPLE_COUNT = 50
FEAS_SAMPLE_SEED = 12345  # fixed so reruns sample identical kernels


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
    dual_mu: tuple[np.ndarray, ...]
    dual_nu: tuple[np.ndarray, ...]
    dual_w: np.ndarray
    duality_gap: float
    primal_residual: float
    dual_residual: float
    num_constraints: int               # inequality rows of the implied primal
    flagged_states: tuple[int, ...]
    sentinel: float
    certified: bool = True
    rounds: int | None = None

    @property
    def lambda_bar(self) -> float:
        return float(self.value.max())


@dataclass(frozen=True)
class ConvergenceReport:
    """Value trace over a resolution sweep."""

    resolutions: tuple[int, ...]
    beta_trace: tuple[np.ndarray, ...]
    final_beta: np.ndarray
    final: GameSolution
    monotonicity_log: tuple[float, ...]  # worst decrease per refinement step
    stopping_reason: str
    feasibility_violation: float
    feasibility_samples: int

    @property
    def lambda_bar(self) -> float:
        return float(self.final_beta.max())


def tilde_cost_table(model: MdpModel, i: int, rows: np.ndarray) -> np.ndarray:
    """(num_rows, num_actions) table of KL-penalized rewards, -inf included."""
    m = model.num_actions
    out = np.empty((rows.shape[0], m))
    safe_rows = np.where(rows > 0.0, rows, 1.0)
    logq = np.log(safe_rows)
    for u in range(m):
        p = model.kernel[u, i]
        bad = (rows[:, p == 0.0] > 0.0).any(axis=1)
        logp = np.log(np.where(p > 0.0, p, 1.0))
        kl = (rows * (logq - logp[None, :])).sum(axis=1)
        out[:, u] = model.cost[i, u] - kl
        out[bad, u] = NEG_INF
    return out


def _sentineled(tables: list[np.ndarray], sentinel: float) -> list[np.ndarray]:
    return [np.where(np.isneginf(t), -sentinel, t) for t in tables]


def _tables(model: MdpModel, rows_per_state, sentinel: float):
    true_tables = [tilde_cost_table(model, i, rows_per_state[i])
                   for i in range(model.num_states)]
    return true_tables, _sentineled(true_tables, sentinel)


def _primal_from_rows(model: MdpModel, rows_per_state, ctabs) -> LinearProgram:
    """min sum(beta) over (V free, beta free, y >= 0 with simplex rows).

    Row order: all beta-rows grouped by state, then all V-rows in the same
    order, then one simplex equality per state.
    """
    s, m = model.num_states, model.num_actions
    counts = [r.shape[0] for r in rows_per_state]
    n_ineq = sum(counts)
    n_vars = 2 * s + s * m
    rows_ix, cols_ix, vals = [], [], []
    base = 0
    for i in range(s):
        r = rows_per_state[i]
        cnt = counts[i]
        ridx = np.arange(base, base + cnt)
        touched = sorted(set(union_support(model, i)) | {i})
        for j in touched:
            coef = (1.0 if j == i else 0.0) - r[:, j]
            # beta-row: sum_j (delta_ij - q_j) beta_j >= 0
            rows_ix.append(ridx)
            cols_ix.append(np.full(cnt, s + j))
            vals.append(coef)
            # V-row shares the same kernel coefficients on V
            rows_ix.append(n_ineq + ridx)
            cols_ix.append(np.full(cnt, j))
            vals.append(coef)
        # V-row: + beta_i - sum_u ctilde(i,q,u) y_i(u)
        rows_ix.append(n_ineq + ridx)
        cols_ix.append(np.full(cnt, s + i))
        vals.append(np.ones(cnt))
        for u in range(m):
            rows_ix.append(n_ineq + ridx)
            cols_ix.append(np.full(cnt, 2 * s + i * m + u))
            vals.append(-ctabs[i][:, u])
        base += cnt
    for i in range(s):
        for u in range(m):
            rows_ix.append(np.array([2 * n_ineq + i]))
            cols_ix.append(np.array([2 * s + i * m + u]))
            vals.append(np.array([1.0]))
    objective = np.zeros(n_vars)
    objective[s:2 * s] = 1.0
    lower = np.zeros(n_vars)
    lower[: 2 * s] = -np.inf
    relations = [">="] * (2 * n_ineq) + ["=="] * s
    rhs = np.zeros(2 * n_ineq + s)
    rhs[2 * n_ineq:] = 1.0
    return LinearProgram.build(
        "min", objective, np.concatenate(rows_ix), np.concatenate(cols_ix),
        np.concatenate(vals), relations, rhs,
        lower=lower, upper=np.full(n_vars, np.inf),
    )


def _dual_from_rows(model: MdpModel, rows_per_state, ctabs) -> LinearProgram:
    """max sum(w) over (mu >= 0, nu >= 0, w free).

    Row order: s kernel-balance equalities (one per state, paired with V),
    s mass equalities (paired with beta), then s*|U| reward rows (paired
    with the y variables).
    """
    s, m = model.num_states, model.num_actions
    counts = [r.shape[0] for r in rows_per_state]
    n_mu = sum(counts)
    n_vars = 2 * n_mu + s
    rows_ix, cols_ix, vals = [], [], []
    base = 0
    for i in range(s):
        r = rows_per_state[i]
        cnt = counts[i]
        mu_cols = np.arange(base, base + cnt)
        nu_cols = n_mu + mu_cols
        touched = sorted(set(union_support(model, i)) | {i})
        for j in touched:
            coef = (1.0 if j == i else 0.0) - r[:, j]
            rows_ix.append(np.full(cnt, j))          # kernel balance, mu
            cols_ix.append(mu_cols)
            vals.append(coef)
            rows_ix.append(np.full(cnt, s + j))      # mass balance, nu part
            cols_ix.append(nu_cols)
            vals.append(coef)
        rows_ix.append(np.full(cnt, s + i))          # mass balance, mu part
        cols_ix.append(mu_cols)
        vals.append(np.ones(cnt))
        for u in range(m):
            rows_ix.append(np.full(cnt, 2 * s + i * m + u))
            cols_ix.append(mu_cols)
            vals.append(ctabs[i][:, u])
        base += cnt
    for i in range(s):
        for u in range(m):
            rows_ix.append(np.array([2 * s + i * m + u]))
            cols_ix.append(np.array([2 * n_mu + i]))
            vals.append(np.array([-1.0]))
    objective = np.zeros(n_vars)
    objective[2 * n_mu:] = 1.0
    lower = np.zeros(n_vars)
    lower[2 * n_mu:] = -np.inf
    relations = ["=="] * (2 * s) + [">="] * (s * m)
    rhs = np.zeros(2 * s + s * m)
    rhs[s:2 * s] = 1.0
    return LinearProgram.build(
        "max", objective, np.concatenate(rows_ix), np.concatenate(cols_ix),
        np.concatenate(vals), relations, rhs,
        lower=lower, upper=np.full(n_vars, np.inf),
    )


def build_primal(model: MdpModel, grid: GridSpec, sentinel: float = SENTINEL) -> LinearProgram:
    """The finite-resolution primal over the given dyadic grid."""
    if grid.num_states != model.num_states:
        raise ValueError("grid was built for a different model shape")
    _, ctabs = _tables(model, grid.rows, sentinel)
    return _primal_from_rows(model, grid.rows, ctabs)


def build_dual(model: MdpModel, grid: GridSpec, sentinel: float = SENTINEL) -> LinearProgram:
    """The exact LP dual of build_primal's output for the same grid."""
    if grid.num_states != model.num_states:
        raise ValueError("grid was built for a different model shape")
    _, ctabs = _tables(model, grid.rows, sentinel)
    return _dual_from_rows(model, grid.rows, ctabs)


def _verify_pair(model, rows_per_state, ctabs, beta, vvec, y, mu, nu, w,
                 feas_tol=GAME_FEAS_TOL):
    """Scaled feasibility residuals of both programs; raises on breach."""
    s, m = model.num_states, model.num_actions
    primal_viol = 0.0
    for i in range(s):
        r = rows_per_state[i]
        scale = np.maximum(1.0, np.abs(ctabs[i]).max(axis=1))
        beta_resid = r @ beta - beta[i]
        v_resid = ctabs[i] @ y[i] + r @ vvec - vvec[i] - beta[i]
        primal_viol = max(primal_viol, float(beta_resid.max(initial=-np.inf)),
                          float((v_resid / scale).max(initial=-np.inf)))
    mu_mass = np.array([float(mu[i].sum()) for i in range(s)])
    nu_mass = np.array([float(nu[i].sum()) for i in range(s)])
    mu_inflow = np.zeros(s)
    nu_inflow = np.zeros(s)
    for i in range(s):
        mu_inflow += rows_per_state[i].T @ mu[i]
        nu_inflow += rows_per_state[i].T @ nu[i]
    dual_viol = float(np.abs(mu_mass - mu_inflow).max())
    dual_viol = max(dual_viol, float(np.abs(nu_mass - nu_inflow + mu_mass - 1.0).max()))
    for i in range(s):
        scale = np.maximum(1.0, np.abs(ctabs[i]).max(axis=0))
        reward = ctabs[i].T @ mu[i]  # per action
        dual_viol = max(dual_viol, float(((w[i] - reward) / scale).max()))
        dual_viol = max(dual_viol, float(max(0.0, -mu[i].min(initial=0.0))),
                        float(max(0.0, -nu[i].min(initial=0.0))))
    if primal_viol > feas_tol or dual_viol > feas_tol:
        raise LpError(
            f"game LP verification failed: primal residual {primal_viol:.3e}, "
            f"dual residual {dual_viol:.3e}"
        )
    return primal_viol, dual_viol


def _polish_duals(model: MdpModel, dual_lp: LinearProgram, optimum: float,
                  counts, ctabs, beta, vvec, y):
    """Deterministic resolution of dual degeneracy.

    The occupation weights are underdetermined wherever a state carries no
    long-run mass (every optimal dual is complementary to every optimal
    primal, so any point of the optimal face is valid).  Re-solve with the
    dual objective locked at its optimum, maximizing the occupation-weighted
    tightness of the V-constraints: legitimate mass sits on tight rows and
    scores zero, so the reweighting only moves the underdetermined part onto
    the rows the potentials actually pin down.
    """
    s, m = model.num_states, model.num_actions
    n_mu = sum(counts)
    # scores: negative V-row slack per (state, row), zero exactly at tight rows;
    # the kernel-balance block holds rows < s and mu columns < n_mu
    inside = (dual_lp.rows < s) & (dual_lp.cols < n_mu)
    block = np.zeros((s, n_mu))
    block[dual_lp.rows[inside], dual_lp.cols[inside]] = dual_lp.vals[inside]
    qv = block.T @ vvec  # equals V_i - q.V per (i, row)
    scores = np.zeros(n_mu)
    base = 0
    for i in range(s):
        cnt = counts[i]
        scores[base:base + cnt] = ctabs[i] @ y[i] - qv[base:base + cnt] - beta[i]
        base += cnt
    objective = np.concatenate([scores, scores, np.zeros(s)])
    lock_rows = np.full(s, dual_lp.num_constraints)
    lock_cols = 2 * n_mu + np.arange(s)
    locked = LinearProgram.build(
        "max", objective,
        np.concatenate([dual_lp.rows, lock_rows]),
        np.concatenate([dual_lp.cols, lock_cols]),
        np.concatenate([dual_lp.vals, np.ones(s)]),
        tuple(dual_lp.relations) + (">=",),
        np.concatenate([dual_lp.rhs, [optimum - 1e-9]]),
        lower=dual_lp.lower, upper=dual_lp.upper,
    )
    return lp_solve(locked)


def _solve_pair(model: MdpModel, rows_per_state, *, resolution, sentinel) -> GameSolution:
    s, m = model.num_states, model.num_actions
    counts = [r.shape[0] for r in rows_per_state]
    n_mu = sum(counts)
    ctabs_true, ctabs = _tables(model, rows_per_state, sentinel)
    dual_lp = _dual_from_rows(model, rows_per_state, ctabs)
    try:
        sol = lp_solve(dual_lp)
    except LpError as exc:
        raise LpError(f"game LP solve failed (resolution={resolution}): {exc}") from exc
    if sol.status != "optimal":
        raise LpError(f"game LP at resolution {resolution} came back {sol.status}")

    offsets = np.concatenate([[0], np.cumsum(counts)])

    def split(x):
        mu = tuple(x[offsets[i]:offsets[i + 1]].copy() for i in range(s))
        nu = tuple(x[n_mu + offsets[i]:n_mu + offsets[i + 1]].copy() for i in range(s))
        return mu, nu, x[2 * n_mu:].copy()

    mu, nu, w = split(sol.x)

    duals = sol.duals
    vvec = duals[:s].copy()
    beta = duals[s:2 * s].copy()
    y = -duals[2 * s:].reshape(s, m)
    y = np.clip(y, 0.0, None)
    sums = y.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        raise LpError("dual multipliers did not yield a minimizer policy")
    y /= sums

    if any(mu[i].sum() <= MU_MASS_TOL for i in range(s)):
        # the occupation weights at mass-free states are a degenerate face of
        # the dual optimum; reweighting them is an improvement pass, so any
        # numerical failure here falls back to the plain vertex
        try:
            polished = _polish_duals(model, dual_lp, float(sol.objective_value),
                                     counts, ctabs, beta, vvec, y)
        except LpError:
            polished = None
        if polished is not None and polished.status == "optimal":
            mu, nu, w = split(polished.x)

    # attainable feasibility degrades with the coefficient range: sentinel
    # columns let the simplex take steps of that magnitude, so sub-threshold
    # movements accumulate up to range * pivot noise
    has_sentinel = any(np.isneginf(t).any() for t in ctabs_true)
    feas_tol = GAME_FEAS_TOL * (100.0 if has_sentinel else 1.0)
    primal_viol, dual_viol = _verify_pair(
        model, rows_per_state, ctabs, beta, vvec, y, mu, nu, w, feas_tol)
    gap = abs(float(beta.sum()) - float(w.sum()))
    if gap > GAME_GAP_TOL:
        raise LpError(f"strong duality violated: |sum(beta) - sum(w)| = {gap:.3e}")

    # maximizer rows from the occupation weights; nu takes over where the
    # mu mass vanishes, and a flagged nearest-row fallback covers the
    # (theoretically unreachable) case of both masses vanishing
    flagged = []
    qstar = np.zeros((s, s))
    for i in range(s):
        if mu[i].sum() > MU_MASS_TOL:
            alpha = mu[i] / mu[i].sum()
        elif nu[i].sum() > MU_MASS_TOL:
            alpha = nu[i] / nu[i].sum()
        else:
            flagged.append(i)
            a = int(np.argmax(y[i]))
            target = model.kernel[a, i]
            dists = np.abs(rows_per_state[i] - target[None, :]).max(axis=1)
            alpha = np.zeros(counts[i])
            alpha[int(np.argmin(dists))] = 1.0
        qstar[i] = alpha @ rows_per_state[i]
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
        dual_mu=mu,
        dual_nu=nu,
        dual_w=w,
        duality_gap=gap,
        primal_residual=primal_viol,
        dual_residual=dual_viol,
        num_constraints=2 * n_mu,
        flagged_states=tuple(flagged),
        sentinel=sentinel,
    )


def solve_game(model: MdpModel, resolution: int, *, sentinel: float = SENTINEL) -> GameSolution:
    """Solve the finite-resolution game LP pair and extract value and policies."""
    grid = build_grid(model, resolution)
    return _solve_pair(model, grid.rows, resolution=resolution, sentinel=sentinel)


def _sample_kernel(model: MdpModel, rng) -> np.ndarray:
    q = np.zeros((model.num_states, model.num_states))
    for i in range(model.num_states):
        supp = union_support(model, i)
        q[i, list(supp)] = rng.dirichlet(np.ones(len(supp)))
    return q


def _sampled_feasibility(model: MdpModel, sol: GameSolution) -> float:
    """Worst violation of the semi-infinite constraints over a fixed sample
    of kernels drawn from the full strategy class."""
    rng = np.random.default_rng(FEAS_SAMPLE_SEED)
    beta, vvec, y = sol.value, sol.potentials, sol.minimizer.rows
    worst = 0.0
    for _ in range(FEAS_SAMPLE_COUNT):
        q = _sample_kernel(model, rng)
        for i in range(model.num_states):
            worst = max(worst, float(q[i] @ beta - beta[i]))
            reward = weighted_sum(
                y[i], [tilde_cost(model, i, q[i], u) for u in range(model.num_actions)])
            if reward != NEG_INF:
                worst = max(worst, reward + float(q[i] @ vvec) - vvec[i] - beta[i])
    return worst


def solve_sequence(model: MdpModel, n_start: int = 2, n_max: int = 8,
                   stop_tol: float = 1e-4, *, sentinel: float = SENTINEL) -> ConvergenceReport:
    """Sweep resolutions n_start..n_max, tracking the value trace.

    The trace must be componentwise nondecreasing: refining the grid only
    enlarges the maximizer's strategy set, so the value can only go up.
    A decrease beyond MONOTONE_TOL is fatal.  Stops early once the sup-norm
    value step falls below stop_tol and the (beta, V, y) triple passes a
    spot-check of feasibility against randomly sampled kernels from the full
    strategy class with slack 10 * stop_tol; the worst sampled violation of
    the final solution is recorded on the report either way.
    """
    if n_start > n_max:
        raise ValueError("n_start must be <= n_max")
    trace = []
    sols = []
    mono = []
    reason = "n_max"
    slack = 10.0 * stop_tol
    worst = None
    for n in range(n_start, n_max + 1):
        sol = solve_game(model, n, sentinel=sentinel)
        if trace:
            drop = float((trace[-1] - sol.value).max())
            mono.append(drop)
            if drop > MONOTONE_TOL:
                raise MonotonicityError(
                    f"value decreased by {drop:.3e} from resolution "
                    f"{sols[-1].resolution} to {n}"
                )
        trace.append(sol.value)
        sols.append(sol)
        if len(trace) >= 2 and float(np.abs(trace[-1] - trace[-2]).max()) < stop_tol:
            # stop early only once the solution also looks feasible for the
            # full strategy class; a converged value can hide coarse potentials
            worst = _sampled_feasibility(model, sol)
            if worst <= slack:
                reason = "stop_tol"
                break
            worst = None

    final = sols[-1]
    if worst is None:
        worst = _sampled_feasibility(model, final)
    return ConvergenceReport(
        resolutions=tuple(s.resolution for s in sols),
        beta_trace=tuple(trace),
        final_beta=final.value,
        final=final,
        monotonicity_log=tuple(mono),
        stopping_reason=reason,
        feasibility_violation=worst,
        feasibility_samples=FEAS_SAMPLE_COUNT,
    )


def gibbs_row(model: MdpModel, i: int, y_row: np.ndarray, vvec: np.ndarray) -> np.ndarray | None:
    """Most-violating kernel row for the V-constraint family at state i.

    For the active actions of y the row must be absolutely continuous with
    respect to every p(.|i,u), so the search lives on the intersection of
    their supports, where the weighted Gibbs form
    q(j) proportional to exp(V_j + sum_u y(u) log p(j|i,u)) is the exact
    concave maximizer.  Returns None when the intersection is empty (every
    row is worth -inf there, so no constraint can be violated).
    """
    active = np.flatnonzero(y_row > SUPPORT_TOL)
    mask = model.support[i].copy()
    for u in active:
        mask &= model.kernel[u, i] > 0.0
    if not mask.any():
        return None
    z = vvec[mask].copy()
    for u in active:
        z += y_row[u] * np.log(model.kernel[u, i][mask])
    z -= z.max()
    weights = np.exp(z)
    row = np.zeros(model.num_states)
    row[mask] = weights / weights.sum()
    return row


def solve_congen(model: MdpModel, inner_tol: float = 1e-6, max_rounds: int = 50,
                 *, sentinel: float = SENTINEL) -> GameSolution:
    """Constraint-generation solve of the semi-infinite game programs.

    Starts from the Dirac rows and alternates a restricted solve with exact
    separation: Dirac rows for the beta-family (the maximum of q.beta over a
    support simplex sits at a vertex) and weighted Gibbs rows for the
    V-family.  Terminates when no constraint is violated by more than
    inner_tol; hitting max_rounds returns the last iterate marked
    uncertified.
    """
    s = model.num_states
    seed = build_grid(model, 0)
    working = [list(map(np.asarray, seed.rows[i])) for i in range(s)]
    sol = None
    for round_no in range(1, max_rounds + 1):
        rows_per_state = [np.array(w) for w in working]
        sol = _solve_pair(model, rows_per_state, resolution=None, sentinel=sentinel)
        beta, vvec, y = sol.value, sol.potentials, sol.minimizer.rows
        added = False
        for i in range(s):
            supp = list(union_support(model, i))
            jbest = supp[int(np.argmax(beta[supp]))]
            if beta[jbest] - beta[i] > inner_tol:
                row = np.zeros(s)
                row[jbest] = 1.0
                if not _row_present(working[i], row):
                    working[i].append(row)
                    added = True
            row = gibbs_row(model, i, y[i], vvec)
            if row is None:
                continue
            reward = weighted_sum(
                y[i], [tilde_cost(model, i, row, u) for u in range(model.num_actions)])
            viol = reward + float(row @ vvec) - vvec[i] - beta[i]
            if viol > inner_tol and not _row_present(working[i], row):
                working[i].append(row)
                added = True
        if not added:
            return replace(sol, certified=True, rounds=round_no)
    return replace(sol, certified=False, rounds=max_rounds)


def _row_present(rows: list[np.ndarray], row: np.ndarray, tol: float = 1e-12) -> bool:
    return any(np.abs(r - row).max() <= tol for r in rows)
