"""Self-contained linear programming kernel.

Solves   min/max  c.x   s.t.   A x {<=, ==, >=} b,   l <= x <= u
with a bounded-variable revised simplex method: two-phase start, dense
basis-inverse updates with periodic refactorization, and a permanent switch
to Bland's rule after a run of degenerate pivots (anti-cycling).  Free
variables are handled natively through their bounds, not by splitting, so
dual extraction stays clean.

Rows are scaled to unit max-norm internally: the scaled triplets are
scattered once into the single dense working matrix (structural, slack and
artificial columns side by side), and every product with the constraint
matrix reads that matrix or the triplets.  feas_tol and gap_tol are absolute
on the scaled problem and the scaling is undone on output.

Dual sign convention (so that b.y equals the primal objective at optimum):

    min problems:  >= rows have dual >= 0, <= rows dual <= 0, == rows free;
    max problems:  the signs flip (<= rows dual >= 0).

All pivoting choices break ties by lowest index, so identical inputs produce
identical pivot sequences and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
GAP_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGEN_TOL = 1e-11
BLAND_AFTER = 500  # consecutive degenerate pivots before switching rule
REFACTOR_EVERY = 64

RELATIONS = ("<=", "==", ">=")


class LpError(RuntimeError):
    """Numerical breakdown (singular basis, iteration runaway); distinct from
    an infeasible or unbounded status, which is a regular solve outcome."""


@dataclass(frozen=True)
class LinearProgram:
    """Sparse-triplet LP description. Default variable bounds are [0, +inf)."""

    sense: str
    objective: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        n = self.objective.shape[0]
        m = self.rhs.shape[0]
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound arrays must match the variable count")
        if len(self.relations) != m:
            raise ValueError("one relation per constraint required")
        if any(r not in RELATIONS for r in self.relations):
            raise ValueError(f"relations must be one of {RELATIONS}")
        for name, a in (("objective", self.objective), ("vals", self.vals), ("rhs", self.rhs)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if len(self.rows) != len(self.cols) or len(self.cols) != len(self.vals):
            raise ValueError("triplet arrays must have equal length")
        if len(self.rows) and (self.rows.min() < 0 or self.rows.max() >= m):
            raise ValueError("triplet row index out of range")
        if len(self.cols) and (self.cols.min() < 0 or self.cols.max() >= n):
            raise ValueError("triplet column index out of range")
        keys = self.rows.astype(np.int64) * n + self.cols
        # strictly increasing keys (what build produces) cannot repeat; only
        # other orders need the sort-based check
        if np.any(keys[1:] <= keys[:-1]) and len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate (row, col) triplets; coalesce first")

    @classmethod
    def build(cls, sense, objective, rows, cols, vals, relations, rhs,
              lower=None, upper=None) -> "LinearProgram":
        """Construct with duplicate triplets coalesced by summation; the
        result is sorted by (row, col) with zero entries dropped."""
        objective = np.asarray(objective, dtype=float)
        n = objective.shape[0]
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if len(rows):
            keys = rows * n + cols
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            start = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
            summed = np.add.reduceat(vals[order], start)
            uniq = keys[start]
            rows, cols, vals = uniq // n, uniq % n, summed
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        return cls(sense=sense, objective=objective, rows=rows, cols=cols,
                   vals=vals, relations=tuple(relations), rhs=rhs,
                   lower=lower, upper=upper)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.rhs.shape[0]

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_constraints, self.num_vars))
        a[self.rows, self.cols] = self.vals
        return a


@dataclass
class LpSolution:
    """Solver output.  At "optimal" status the dual objective
    rhs.duals + reduced_costs.x equals the primal objective within the gap
    tolerance (the second term covers variables pinned at finite nonzero
    bounds; it vanishes for default-bounded problems)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    objective_value: float | None = None
    duality_gap: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    iterations: int = 0


class _Simplex:
    """Bounded-variable revised simplex on  min c.x, A x = b, l <= x <= u."""

    def __init__(self, a, b, c, lower, upper, feas_tol, max_iters):
        self.a = a
        self.b = b
        self.c = c
        self.lower = lower
        self.upper = upper
        self.feas_tol = feas_tol
        self.max_iters = max_iters
        self.m, self.n = a.shape
        self.x = np.zeros(self.n)
        self.basis = np.zeros(self.m, dtype=int)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.binv = np.eye(self.m)
        self.iterations = 0
        self.bland = False
        self.degen_run = 0
        self.pivots_since_refactor = 0

    # -- basis linear algebra -------------------------------------------------

    def _refactor(self):
        bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise LpError(f"singular basis during refactorization: {exc}") from exc
        self.pivots_since_refactor = 0
        self._recompute_basics()

    def _recompute_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        rhs = self.b - self.a @ xn
        bmat = self.a[:, self.basis]
        xb = self.binv @ rhs
        # iterative refinement: the explicit inverse alone loses kappa*eps
        for _ in range(2):
            xb += self.binv @ (rhs - bmat @ xb)
        self.x[self.basis] = xb

    # -- pricing ---------------------------------------------------------------

    def _reduced_costs(self):
        cb = self.c[self.basis]
        bmat = self.a[:, self.basis]
        y = self.binv.T @ cb
        for _ in range(2):
            y += self.binv.T @ (cb - bmat.T @ y)
        return self.c - self.a.T @ y, y

    def _choose_entering(self, d):
        lo, up = self.lower, self.upper
        nonbasic = ~self.in_basis
        movable = nonbasic & (up > lo)
        down_ok = movable & self.at_upper & (d > OPT_TOL)
        up_ok = movable & ~self.at_upper & (d < -OPT_TOL)
        # free nonbasic variables sit at 0 and may move either way
        free = movable & np.isneginf(lo) & np.isposinf(up)
        down_ok |= free & (d > OPT_TOL)
        up_ok |= free & (d < -OPT_TOL)
        eligible = down_ok | up_ok
        if not eligible.any():
            return None, 0
        idx = np.flatnonzero(eligible)
        if self.bland:
            j = int(idx[0])
        else:
            j = int(idx[np.argmax(np.abs(d[idx]))])
        direction = 1 if (d[j] < 0) else -1
        return j, direction

    # -- ratio test and pivot ---------------------------------------------------

    def _step(self, j, direction):
        w = self.binv @ self.a[:, j]
        # entries below a relative threshold are treated as exact zeros so a
        # noise-scale element can never be chosen as a pivot
        zero_tol = max(PIVOT_TOL, 1e-11 * float(np.abs(w).max(initial=0.0)))
        delta = -direction * w  # change of basic values per unit step
        bvars = self.basis
        theta = np.full(self.m, np.inf)
        grow = delta > zero_tol
        shrink = delta < -zero_tol
        room_up = self.upper[bvars] - self.x[bvars]
        room_dn = self.x[bvars] - self.lower[bvars]
        with np.errstate(invalid="ignore"):
            theta[grow] = np.maximum(room_up[grow], 0.0) / delta[grow]
            theta[shrink] = np.maximum(room_dn[shrink], 0.0) / (-delta[shrink])
        flip = self.upper[j] - self.lower[j]  # inf unless both bounds finite
        limit = float(min(theta.min(initial=np.inf), flip))
        if not np.isfinite(limit):
            return "unbounded"
        # pivot or bound flip; only exact ratio ties are interchangeable, a
        # near-tie window would let the true blocking variable overshoot its
        # bound by (window * |delta|), which explodes on ill-scaled columns
        if np.isfinite(flip) and flip <= limit:
            self.x[j] = self.upper[j] if direction > 0 else self.lower[j]
            self.at_upper[j] = direction > 0
            self.x[bvars] += delta * flip
            step = flip
            pivoted = False
        else:
            cand = np.flatnonzero(theta <= limit)
            if self.bland:
                r = int(cand[np.argmin(bvars[cand])])  # index rule: terminates
            else:
                r = int(cand[np.argmax(np.abs(w[cand]))])  # stability rule
            if abs(w[r]) < zero_tol:
                self._refactor()
                w = self.binv @ self.a[:, j]
                zero_tol = max(PIVOT_TOL, 1e-11 * float(np.abs(w).max(initial=0.0)))
                if abs(w[r]) < zero_tol:
                    raise LpError("pivot element vanished; basis numerically singular")
            leaving = bvars[r]
            self.x[bvars] += delta * limit
            self.x[j] = self.x[j] + direction * limit
            # the leaving variable keeps its stepped value (== the bound it
            # reached, up to rounding); forcing it onto the bound exactly
            # would make the stored point inconsistent with the basis system
            # and resurface as bound violations at the next refactorization
            self.at_upper[leaving] = delta[r] > 0
            self.in_basis[leaving] = False
            self.in_basis[j] = True
            self.basis[r] = j
            piv = w[r]
            self.binv[r, :] /= piv
            others = np.arange(self.m) != r
            self.binv[others, :] -= np.outer(w[others], self.binv[r, :])
            self.pivots_since_refactor += 1
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactor()
            step = limit
            pivoted = True
        if step <= DEGEN_TOL:
            self.degen_run += 1
            if self.degen_run >= BLAND_AFTER:
                self.bland = True
        else:
            self.degen_run = 0
        return "pivoted" if pivoted else "flipped"

    def run(self):
        """Iterate to optimality; returns 'optimal' or 'unbounded'."""
        while True:
            if self.iterations >= self.max_iters:
                raise LpError(f"iteration limit {self.max_iters} exceeded")
            d, _ = self._reduced_costs()
            j, direction = self._choose_entering(d)
            if j is None:
                return "optimal"
            outcome = self._step(j, direction)
            if outcome == "unbounded":
                return "unbounded"
            self.iterations += 1


def solve(lp: LinearProgram, *, feas_tol: float = FEAS_TOL, gap_tol: float = GAP_TOL,
          max_iters: int = 200_000) -> LpSolution:
    """Solve an LP; returns primal and dual solutions with an optimality check.

    Raises LpError on numerical breakdown; infeasible/unbounded are statuses.
    """
    m, n = lp.num_constraints, lp.num_vars
    if np.any(lp.lower > lp.upper):
        return LpSolution(status="infeasible")
    sign = 1.0 if lp.sense == "min" else -1.0

    # row scaling to unit max-norm, applied to the triplets
    norms = np.zeros(m)
    np.maximum.at(norms, lp.rows, np.abs(lp.vals))
    norms[norms == 0.0] = 1.0
    b_scaled = lp.rhs / norms

    # the one dense copy: scaled structural columns, then slacks (<= rows
    # get +slack, >= rows get -slack, both slack >= 0), then artificials
    ineq = [k for k, rel in enumerate(lp.relations) if rel != "=="]
    n_slack = len(ineq)
    a_full = np.zeros((m, n + n_slack + m))
    a_full[lp.rows, lp.cols] = lp.vals / norms[lp.rows]
    for pos, k in enumerate(ineq):
        a_full[k, n + pos] = 1.0 if lp.relations[k] == "<=" else -1.0

    lower = np.concatenate([lp.lower, np.zeros(n_slack + m)])
    upper = np.concatenate([lp.upper, np.full(n_slack + m, np.inf)])

    # initial nonbasic point: finite bound nearest zero, free variables at 0
    x0 = np.zeros(n + n_slack)
    finite_lo = np.isfinite(lower[: n + n_slack])
    x0[finite_lo] = lower[: n + n_slack][finite_lo]
    only_up = ~finite_lo & np.isfinite(upper[: n + n_slack])
    x0[only_up] = upper[: n + n_slack][only_up]

    resid = b_scaled - a_full[:, : n + n_slack] @ x0
    art = np.arange(n + n_slack, n + n_slack + m)
    a_full[np.arange(m), art] = np.where(resid >= 0, 1.0, -1.0)

    sim = _Simplex(
        a=a_full, b=b_scaled,
        c=np.concatenate([np.zeros(n + n_slack), np.ones(m)]),
        lower=lower, upper=upper, feas_tol=feas_tol, max_iters=max_iters,
    )
    sim.x[: n + n_slack] = x0
    sim.x[art] = np.abs(resid)
    sim.at_upper[np.flatnonzero(only_up)] = True
    sim.basis = art.copy()
    sim.in_basis[art] = True
    sim.binv = np.diag(np.where(resid >= 0, 1.0, -1.0))

    status = sim.run()
    phase1_obj = sim.x[art].sum()
    if status == "unbounded" or not np.isfinite(phase1_obj):
        raise LpError("phase-1 subproblem did not terminate cleanly")
    if phase1_obj > feas_tol:
        return LpSolution(status="infeasible", iterations=sim.iterations)

    # drive artificials out of the basis where possible; rows where no real
    # column can pivot are redundant and keep a zero-fixed artificial
    for r in range(m):
        bvar = sim.basis[r]
        if bvar < n + n_slack:
            continue
        row = sim.binv[r, :] @ sim.a[:, : n + n_slack]
        cand = np.flatnonzero((np.abs(row) > 1e-8) & ~sim.in_basis[: n + n_slack])
        if len(cand):
            j = int(cand[0])
            w = sim.binv @ sim.a[:, j]
            sim.in_basis[bvar] = False
            sim.in_basis[j] = True
            sim.basis[r] = j
            piv = w[r]
            sim.binv[r, :] /= piv
            others = np.arange(m) != r
            sim.binv[others, :] -= np.outer(w[others], sim.binv[r, :])
            sim.x[j] = sim.x[bvar] / piv if abs(piv) > PIVOT_TOL else 0.0
            sim.x[bvar] = 0.0
            sim._recompute_basics()
    sim.lower[art] = 0.0
    sim.upper[art] = 0.0
    sim.x[art[~sim.in_basis[art]]] = 0.0

    sim.c = np.concatenate([sign * lp.objective, np.zeros(n_slack + m)])
    sim.degen_run = 0
    status = sim.run()
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=sim.iterations)
    # clean-up pass: rebuild the basis inverse and basic values from scratch,
    # then let the iteration polish anything the accumulated updates drifted
    sim._refactor()
    status = sim.run()
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=sim.iterations)

    x = np.clip(sim.x[:n], lp.lower, lp.upper)
    _, y_int = sim._reduced_costs()
    duals = sign * y_int / norms
    objective = float(lp.objective @ x)
    reduced = lp.objective - np.bincount(lp.cols, weights=lp.vals * duals[lp.rows],
                                         minlength=n)
    # bound duals: variables pinned at finite nonzero bounds carry their
    # reduced cost into the dual objective
    bound_terms = float(np.sum(np.where(np.isfinite(x) & (reduced != 0.0),
                                        reduced * x, 0.0)))
    gap = abs(objective - (float(lp.rhs @ duals) + bound_terms))

    # residuals on the scaled problem
    ax = a_full[:, :n] @ x
    viol = np.zeros(m)
    for k, rel in enumerate(lp.relations):
        if rel == "==":
            viol[k] = abs(ax[k] - b_scaled[k])
        elif rel == "<=":
            viol[k] = max(0.0, ax[k] - b_scaled[k])
        else:
            viol[k] = max(0.0, b_scaled[k] - ax[k])
    primal_residual = float(viol.max(initial=0.0))

    # optimal reduced-cost signs over structural and slack columns (the slack
    # ones encode the dual sign conditions on inequality rows): d == 0 on
    # basic and free columns, d <= 0 at an upper bound, d >= 0 at a lower one
    ncols = n + n_slack
    d_int = sim.c[:ncols] - a_full[:, :ncols].T @ y_int
    pinned = sim.in_basis[:ncols] | (np.isneginf(sim.lower[:ncols])
                                     & np.isposinf(sim.upper[:ncols]))
    dual_residual = float(np.where(pinned, np.abs(d_int),
                                   np.where(sim.at_upper[:ncols], d_int, -d_int))
                          .max(initial=0.0))

    sol = LpSolution(
        status="optimal", x=x, duals=duals, reduced_costs=reduced,
        objective_value=objective, duality_gap=gap,
        primal_residual=primal_residual,
        dual_residual=dual_residual, iterations=sim.iterations,
    )
    if primal_residual > 1e3 * feas_tol or gap > 1e3 * gap_tol:
        raise LpError(
            f"optimality certificate failed: primal residual {primal_residual:.3e}, "
            f"duality gap {gap:.3e}"
        )
    return sol
