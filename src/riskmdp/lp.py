"""Self-contained linear programming kernel.

Solves   min/max  c.x   s.t.   A x {<=, ==, >=} b
over three kinds of column: nonnegative [0, inf) (the default), free
(-inf, inf) and fixed at 0 [0, 0]; any other bound is rejected.  Every
column starts at 0, and the simplex knows its kind by two masks, free and
fixed.  The method is a revised simplex: two-phase start (or phase 2
straight from a given feasible basis), dense basis-inverse updates with
periodic refactorization, and a permanent switch to Bland's rule after a
run of degenerate pivots (anti-cycling).  The basis matrix is kept as state:
a pivot replaces one of its columns, and only a refactorization gathers it
anew.  The explicit inverse is updated in place by one rank-one step per
pivot.  A warm start carries only the basis and inverts it like any
refactorization; a singular or infeasible one raises LpError, and the solve
starts cold.  Free columns are handled natively, not by splitting, so dual
extraction stays clean.

The constraint matrix comes in dense.  Rows are scaled to unit max-norm
straight into the single dense working matrix (structural, slack and
artificial columns side by side), and every product with the constraint
matrix reads that matrix or the input one.  FEAS_TOL, OPT_TOL and GAP_TOL
are absolute on the scaled problem and the scaling is undone on output.  An
optimal solution certifies itself: its primal residual, dual residual and
duality gap must each lie within 1e3 times its tolerance, or the solve
raises LpError.

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
MAX_ITERS = 200_000

RELATIONS = ("<=", "==", ">=")


class LpError(RuntimeError):
    """Numerical breakdown (singular basis, iteration runaway); distinct from
    an infeasible or unbounded status, which is a regular solve outcome."""


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP description.  Each column is nonnegative (lower 0, upper inf:
    the default), free (-inf, inf) or fixed at 0 (0, 0)."""

    sense: str
    objective: np.ndarray
    matrix: np.ndarray  # (num_constraints, num_vars)
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
        if self.matrix.shape != (m, n):
            raise ValueError(f"matrix shape {self.matrix.shape} is not {(m, n)}")
        if len(self.relations) != m:
            raise ValueError("one relation per constraint required")
        if any(r not in RELATIONS for r in self.relations):
            raise ValueError(f"relations must be one of {RELATIONS}")
        kinds = ((self.lower == 0.0) & ((self.upper == 0.0) | np.isposinf(self.upper))
                 | np.isneginf(self.lower) & np.isposinf(self.upper))
        if not kinds.all():
            j = int(np.argmin(kinds))
            raise ValueError(f"column {j} has bounds [{self.lower[j]}, {self.upper[j]}]; "
                             "a column must be [0, inf), (-inf, inf) or [0, 0]")
        for name, a in (("objective", self.objective), ("matrix", self.matrix),
                        ("rhs", self.rhs)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def build(cls, sense, objective, rows, cols, vals, relations, rhs,
              lower=None, upper=None) -> "LinearProgram":
        """Construct from (row, col, value) triplets; duplicates are summed."""
        objective = np.asarray(objective, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        n = objective.shape[0]
        index = (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
        vals = np.asarray(vals, dtype=float)
        if len(index[0]) != len(index[1]) or len(index[1]) != len(vals):
            raise ValueError("triplet arrays must have equal length")
        matrix = np.zeros((rhs.shape[0], n))
        # np.add.at would wrap a negative index onto a real entry
        for name, ix, bound in zip(("row", "column"), index, matrix.shape):
            if len(ix) and (ix.min() < 0 or ix.max() >= bound):
                raise ValueError(f"triplet {name} index out of range")
        np.add.at(matrix, index, vals)
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        return cls(sense=sense, objective=objective, matrix=matrix,
                   relations=tuple(relations), rhs=rhs, lower=lower, upper=upper)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.rhs.shape[0]


@dataclass
class LpSolution:
    """Solver output.  At "optimal" status the dual objective rhs.duals
    equals the primal objective within the gap tolerance: a column is
    nonnegative, free or fixed at 0, so none is held at a nonzero bound."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective_value: float | None = None
    duality_gap: float | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    iterations: int = 0
    basis: np.ndarray | None = None  # final basis, at "optimal" status
    warm_started: bool = False  # phase 2 ran from the given basis


class _Simplex:
    """Revised simplex on  min c.x, A x = b; the masks free and fixed give each
    column's kind (in neither: nonnegative), and a nonbasic column sits at 0."""

    def __init__(self, a, b, c, free, fixed):
        self.a = a
        self.b = b
        self.c = c
        self.free = free
        self.fixed = fixed
        self.m, self.n = a.shape
        self.x = np.zeros(self.n)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.keep = np.zeros(self.n, dtype=bool)  # never chosen to leave
        self.basis = self.bmat = self.binv = None  # set by the cold or the warm start
        self.outer = np.empty((self.m, self.m))  # rank-one update buffer
        self.iterations = 0
        self.bland = False
        self.degen_run = 0
        self.pivots_since_refactor = 0

    # -- basis linear algebra -------------------------------------------------

    def _refactor(self):
        """Gather the basis matrix, invert it and recompute the basic values."""
        self.bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(self.bmat)
        except np.linalg.LinAlgError as exc:
            raise LpError(f"singular basis during refactorization: {exc}") from exc
        self.pivots_since_refactor = 0
        self._recompute_basics()

    def _recompute_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        rhs = self.b - self.a @ xn
        xb = self.binv @ rhs
        # iterative refinement: the explicit inverse alone loses kappa*eps
        for _ in range(2):
            xb += self.binv @ (rhs - self.bmat @ xb)
        self.x[self.basis] = xb

    # -- pricing ---------------------------------------------------------------

    def _reduced_costs(self):
        cb = self.c[self.basis]
        y = self.binv.T @ cb
        for _ in range(2):
            y += self.binv.T @ (cb - self.bmat.T @ y)
        return self.c - self.a.T @ y, y

    def _choose_entering(self, d):
        """The improving nonbasic column of largest |d| (the lowest-indexed
        one under Bland's rule) and its direction; (None, 0) at optimality.
        A nonnegative column (at 0) may only move up, a free one either way,
        and a fixed one not at all."""
        gain = np.where(self.free, np.abs(d), -d)
        gain[self.in_basis | self.fixed] = 0.0
        j = int(np.argmax(gain > OPT_TOL) if self.bland else np.argmax(gain))
        if not gain[j] > OPT_TOL:
            return None, 0
        return j, 1 if d[j] < 0 else -1

    # -- ratio test and pivot ---------------------------------------------------

    def _replace(self, r, j, w):
        """Column j enters the basis at position r (w = binv @ a[:, j]): it
        becomes column r of the kept basis matrix, and the explicit inverse
        takes its rank-one update in place."""
        self.in_basis[self.basis[r]] = False
        self.in_basis[j] = True
        self.basis[r] = j
        self.bmat[:, r] = self.a[:, j]
        rr = self.binv[r] / w[r]
        # einsum writes the outer product in half the time np.outer takes
        self.binv -= np.einsum("i,j->ij", w, rr, out=self.outer)
        self.binv[r] = rr

    def _step(self, j, direction):
        """Column j enters, moving in direction; False if nothing blocks it."""
        w = self.binv @ self.a[:, j]
        # entries below a relative threshold are treated as exact zeros: theta is
        # finite only where |w| > zero_tol, so no noise-scale pivot can be chosen
        zero_tol = max(PIVOT_TOL, 1e-11 * float(np.abs(w).max(initial=0.0)))
        delta = -direction * w  # change of basic values per unit step
        bvars = self.basis
        delta[self.keep[bvars]] = 0.0
        xb = self.x[bvars]
        # room to the bound ahead: up to 0 if fixed, down to 0 unless free
        room = np.where(delta > 0, np.where(self.fixed[bvars], 0.0, np.inf) - xb,
                        np.where(self.free[bvars], np.inf, xb))
        size = np.abs(delta)
        with np.errstate(all="ignore"):   # a dropped entry may divide by 0 or overflow
            theta = np.where(size > zero_tol, np.maximum(room, 0.0) / size, np.inf)
        limit = float(theta.min(initial=np.inf))
        if not np.isfinite(limit):
            return False
        # only exact ratio ties are interchangeable, a near-tie window would
        # let the true blocking variable overshoot its bound by
        # (window * |delta|), which explodes on ill-scaled columns
        cand = np.flatnonzero(theta <= limit)
        if self.bland:
            r = int(cand[np.argmin(bvars[cand])])  # index rule: terminates
        else:
            r = int(cand[np.argmax(np.abs(w[cand]))])  # stability rule
        self.x[bvars] += delta * limit
        self.x[j] = self.x[j] + direction * limit
        # the leaving variable keeps its stepped value (== the bound it
        # reached, up to rounding); forcing it onto the bound exactly would
        # make the stored point inconsistent with the basis system and
        # resurface as bound violations at the next refactorization
        self._replace(r, j, w)
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self._refactor()
        if limit <= DEGEN_TOL:
            self.degen_run += 1
            if self.degen_run >= BLAND_AFTER:
                self.bland = True
        else:
            self.degen_run = 0
        return True

    def run(self):
        """Iterate to optimality; returns 'optimal' or 'unbounded'."""
        while True:
            if self.iterations >= MAX_ITERS:
                raise LpError(f"iteration limit {MAX_ITERS} exceeded")
            d, _ = self._reduced_costs()
            j, direction = self._choose_entering(d)
            if j is None:
                return "optimal"
            if not self._step(j, direction):
                return "unbounded"
            self.iterations += 1


def solve(lp: LinearProgram, *, basis=None) -> LpSolution:
    """Solve an LP; returns primal and dual solutions with an optimality check.

    basis, if given, holds m column indices into the working matrix
    [structural | slack (one per inequality row, in row order) | artificial
    (one per row)], such as the `basis` of an earlier solution.  Nonbasic
    columns start at 0; when the basis is nonsingular and its point lies
    within bounds, phase 1 is skipped.  Otherwise, or on a numerical
    breakdown from that start, the LP is solved cold.

    Raises LpError on numerical breakdown; infeasible/unbounded are statuses.
    """
    if basis is not None:
        try:
            return _solve(lp, np.asarray(basis, dtype=np.intp))
        except LpError:
            pass  # no phase 2 from the given basis, or a breakdown in it: solve cold
    return _solve(lp, None)


def _warm_start(sim: _Simplex, basis: np.ndarray) -> None:
    """Install basis over the zero start point.  Raises ValueError for a
    malformed basis, and LpError when it is singular or its basic point
    leaves the bounds or the rows by more than FEAS_TOL."""
    # (np.unique would import numpy.ma, 1.5 MB of resident memory)
    in_range = basis.shape == (sim.m,) and np.all(basis >= 0) and np.all(basis < sim.n)
    if in_range:
        sim.in_basis[basis] = True
    if not in_range or np.count_nonzero(sim.in_basis) != sim.m:
        raise ValueError(f"basis must hold {sim.m} distinct column indices below {sim.n}")
    sim.basis = basis.copy()
    sim._refactor()
    x = sim.x
    if not (np.all(np.isfinite(x)) and np.all((x >= -FEAS_TOL) | sim.free)
            and np.all((x <= FEAS_TOL) | ~sim.fixed)
            and np.abs(sim.a @ x - sim.b).max(initial=0.0) <= FEAS_TOL):
        raise LpError("the given basis does not start phase 2 within FEAS_TOL")


def _solve(lp: LinearProgram, basis) -> LpSolution:
    """One solve, from the given basis or (basis None) cold; lp's bounds
    become the simplex's free and fixed masks here, once."""
    m, n = lp.num_constraints, lp.num_vars
    sign = 1.0 if lp.sense == "min" else -1.0

    # the one dense copy: structural columns with rows scaled to unit
    # max-norm, then slacks (<= rows get +slack, >= rows get -slack, both
    # slack >= 0), then artificials; the norms are taken and the scaling done
    # in place, so no other matrix-sized array is made
    relations = np.array(lp.relations)
    ineq = np.flatnonzero(relations != "==")
    n_slack = len(ineq)
    ncols = n + n_slack  # the real columns, before the artificials
    a_full = np.zeros((m, ncols + m))
    structural = a_full[:, :n]
    norms = np.abs(lp.matrix, out=structural).max(axis=1, initial=0.0)
    norms[norms == 0.0] = 1.0
    b_scaled = lp.rhs / norms
    np.divide(lp.matrix, norms[:, None], out=structural)
    a_full[ineq, n + np.arange(n_slack)] = np.where(relations[ineq] == "<=", 1.0, -1.0)
    # slacks and artificials are nonnegative until phase 2 fixes the artificials
    pad = np.zeros(n_slack + m, dtype=bool)
    free, fixed = np.append(np.isneginf(lp.lower), pad), np.append(lp.upper == 0.0, pad)

    # every column starts at 0, so the artificials take up b: each one's
    # sign makes its start value |b_k| nonnegative
    art = np.arange(ncols, ncols + m)
    art_sign = np.where(b_scaled >= 0, 1.0, -1.0)
    a_full[np.arange(m), art] = art_sign
    phase2_c = np.concatenate([sign * lp.objective, np.zeros(n_slack + m)])

    sim = _Simplex(a=a_full, b=b_scaled, c=phase2_c, free=free, fixed=fixed)
    if basis is not None:
        # artificials are zero-fixed from the start: a basic one may only
        # sit on a redundant row
        sim.fixed[art] = True
        _warm_start(sim, basis)
    else:
        sim.c = np.concatenate([np.zeros(ncols), np.ones(m)])  # phase 1
        sim.x[art] = np.abs(b_scaled)
        sim.basis = art.copy()
        sim.bmat = sim.a[:, art]
        sim.in_basis[art] = True
        sim.binv = np.diag(art_sign)

        status = sim.run()
        phase1_obj = sim.x[art].sum()
        if status == "unbounded" or not np.isfinite(phase1_obj):
            raise LpError("phase-1 subproblem did not terminate cleanly")
        if phase1_obj > FEAS_TOL:
            return LpSolution(status="infeasible", iterations=sim.iterations)

    # drive artificials out of the basis where possible; rows where no real
    # column can pivot are redundant and keep a zero-fixed artificial
    for r in range(m):
        bvar = sim.basis[r]
        if bvar < ncols:
            continue
        row = sim.binv[r, :] @ sim.a[:, :ncols]
        cand = np.flatnonzero((np.abs(row) > 1e-8) & ~sim.in_basis[:ncols])
        if len(cand):
            j = int(cand[0])
            w = sim.binv @ sim.a[:, j]
            sim._replace(r, j, w)
            sim.x[bvar] = 0.0
            sim._recompute_basics()
    sim.fixed[art] = True
    sim.x[art[~sim.in_basis[art]]] = 0.0
    # pivots keep a zero tableau row zero, so on the rows the artificials
    # still hold every entry is rounding noise; pivoting one out there would
    # leave a singular basis, so they stay basic
    sim.keep[art] = True

    sim.c = phase2_c
    sim.degen_run = 0
    # phase 2, then a clean-up pass: rebuild the inverse and the basic values
    # from scratch, and let the iteration polish what the updates drifted
    for clean_up in (False, True):
        if clean_up:
            sim._refactor()
        if sim.run() == "unbounded":
            return LpSolution(status="unbounded", iterations=sim.iterations,
                              warm_started=basis is not None)

    x = np.clip(sim.x[:n], lp.lower, lp.upper)
    d, y_int = sim._reduced_costs()
    duals = sign * y_int / norms
    objective = float(lp.objective @ x)
    gap = abs(objective - float(lp.rhs @ duals))

    # residuals on the scaled problem
    excess = structural @ x - b_scaled
    viol = np.where(relations == "==", np.abs(excess),
                    np.maximum(np.where(relations == "<=", excess, -excess), 0.0))
    primal_residual = float(viol.max(initial=0.0))

    # optimal reduced-cost signs over structural and slack columns (the slack
    # ones encode the dual sign conditions on inequality rows): d == 0 on
    # basic and free columns, d >= 0 on a nonbasic nonnegative one, and any
    # sign on a nonbasic fixed column, which sits at both its bounds
    d = d[:ncols]
    signed = np.where(sim.fixed[:ncols], 0.0, -d)
    pinned = sim.in_basis[:ncols] | sim.free[:ncols]
    dual_residual = float(np.where(pinned, np.abs(d), signed).max(initial=0.0))

    if (primal_residual > 1e3 * FEAS_TOL or dual_residual > 1e3 * OPT_TOL
            or gap > 1e3 * GAP_TOL):
        raise LpError(
            f"optimality certificate failed: primal residual {primal_residual:.3e}, "
            f"dual residual {dual_residual:.3e}, duality gap {gap:.3e}"
        )
    return LpSolution(
        status="optimal", x=x, duals=duals,
        objective_value=objective, duality_gap=gap,
        primal_residual=primal_residual,
        dual_residual=dual_residual, iterations=sim.iterations,
        basis=sim.basis.copy(), warm_started=basis is not None,
    )
