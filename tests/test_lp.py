import dataclasses

import numpy as np
import pytest

from riskmdp import lp as lp_module
from riskmdp.lp import FEAS_TOL, GAP_TOL, LinearProgram, LpError, LpSolution, solve

from helpers import counted_inverses, enumerate_lp_optimum


def lp(sense, c, triplets, relations, rhs, lower=None, upper=None):
    rows = [t[0] for t in triplets]
    cols = [t[1] for t in triplets]
    vals = [t[2] for t in triplets]
    return LinearProgram.build(sense, c, rows, cols, vals, relations, rhs,
                               lower=lower, upper=upper)


def test_min_with_lower_bound_constraint():
    sol = solve(lp("min", [1.0], [(0, 0, 1.0)], [">="], [3.0]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [3.0])
    np.testing.assert_allclose(sol.duals, [1.0])
    assert sol.duality_gap <= GAP_TOL


def test_infeasible():
    sol = solve(lp("min", [0.0], [(0, 0, 1.0)], ["<="], [-1.0]))
    assert sol.status == "infeasible"


def test_two_variable_vertex_with_duals():
    sol = solve(lp("max", [1.0, 1.0],
                   [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 1.0)],
                   ["<=", "<="], [4.0, 6.0]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.6, 1.2])
    np.testing.assert_allclose(sol.objective_value, 2.8)
    np.testing.assert_allclose(sol.duals, [0.4, 0.2])


def test_unbounded():
    assert solve(lp("max", [1.0], [(0, 0, 1.0)], [">="], [0.0])).status == "unbounded"


def test_free_variables_and_equality_duals():
    # min y  s.t.  x + y == 5,  x <= 2,  both free
    prog = lp("min", [0.0, 1.0],
              [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)],
              ["==", "<="], [5.0, 2.0],
              lower=[-np.inf, -np.inf], upper=[np.inf, np.inf])
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 3.0])
    np.testing.assert_allclose(sol.duals, [1.0, -1.0])
    np.testing.assert_allclose(prog.rhs @ sol.duals, sol.objective_value)


@pytest.mark.parametrize("lower, upper", [
    (1.0, np.inf), (0.0, 1.2), (-np.inf, 0.0), (1.0, 0.5), (np.nan, np.inf),
], ids=["finite-nonzero", "finite-upper-above-0", "free-below-finite-upper",
        "inconsistent", "nan"])
def test_constructor_rejects_bounds_outside_the_three_kinds(lower, upper):
    # a column is nonnegative, free or fixed at 0; column 0 is a valid one
    with pytest.raises(ValueError, match=r"column 1 has bounds .* must be \[0, inf\), "
                                         r"\(-inf, inf\) or \[0, 0\]"):
        lp("min", [1.0, 1.0], [(0, 0, 1.0)], [">="], [0.0],
           lower=[0.0, lower], upper=[np.inf, upper])


def test_duplicate_triplets_are_coalesced():
    prog = lp("min", [1.0, 1.0], [(0, 0, 0.5), (0, 1, 2.0), (0, 0, 0.5)], [">="], [3.0])
    np.testing.assert_array_equal(prog.matrix, [[1.0, 2.0]])


def _built(rows, cols):
    """build with the given triplet order and unit values."""
    return LinearProgram.build("min", np.ones(3), rows, cols, np.ones(len(rows)),
                               ("<=", "<="), np.ones(2))


def test_build_accepts_unsorted_unique_triplets():
    prog = _built([1, 0, 1, 0], [2, 1, 0, 0])
    np.testing.assert_array_equal(prog.matrix, [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


@pytest.mark.parametrize("rows,cols", [
    ([0, 1, 0], [2, 0, 2]),        # unsorted, duplicate apart
    ([0, 0, 1], [1, 1, 2]),        # sorted, duplicate adjacent
    ([1, 1], [0, 0]),
])
def test_build_sums_duplicate_triplets(rows, cols):
    expected = np.zeros((2, 3))
    for r, c in zip(rows, cols):
        expected[r, c] += 1.0
    np.testing.assert_array_equal(_built(rows, cols).matrix, expected)


@pytest.mark.parametrize("rows,cols,which", [
    ([2], [0], "row"), ([-1], [0], "row"), ([0], [3], "column"), ([0], [-1], "column"),
    ([0, 1, -3], [0, 1, 2], "row"),
])
def test_build_rejects_out_of_range_triplets(rows, cols, which):
    # np.add.at would wrap a negative index onto a real entry
    with pytest.raises(ValueError, match=f"triplet {which} index out of range"):
        _built(rows, cols)


def _direct(matrix):
    return LinearProgram(sense="min", objective=np.ones(3), matrix=matrix,
                         relations=("<=", "<="), rhs=np.ones(2), lower=np.zeros(3),
                         upper=np.full(3, np.inf))


@pytest.mark.parametrize("shape", [(3, 2), (2, 2), (2, 4), (6,), (1, 2, 3)])
def test_constructor_rejects_matrix_of_wrong_shape(shape):
    with pytest.raises(ValueError, match="matrix shape"):
        _direct(np.ones(shape))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_constructor_rejects_nonfinite_matrix(bad):
    matrix = np.ones((2, 3))
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="matrix must be finite"):
        _direct(matrix)
    _direct(np.ones((2, 3)))  # the same program with finite entries is fine


def _reference_dual_residual(sim, n, n_slack):
    """The column-by-column statement of the reduced-cost sign conditions."""
    _, y_int = sim._reduced_costs()
    d = sim.c[: n + n_slack] - sim.a[:, : n + n_slack].T @ y_int
    worst = 0.0
    for j in range(n + n_slack):
        if sim.in_basis[j]:
            worst = max(worst, abs(d[j]))
        elif j < n and sim.free[j]:
            worst = max(worst, abs(d[j]))
        elif j < n and sim.fixed[j]:
            continue  # a fixed column sits at both bounds: any sign holds
        else:
            worst = max(worst, max(0.0, -d[j]))
    return worst


def _bounds(rng, n):
    """Random column bounds: free, fixed at 0 or nonnegative."""
    lower = np.where(rng.uniform(size=n) < 0.3, -np.inf, 0.0)
    upper = np.where((rng.uniform(size=n) < 0.4) & (lower == 0.0), 0.0, np.inf)
    return lower, upper


def _bounded_instance(rng):
    """Random sparse LP with free and fixed-at-0 columns, feasible at a
    point that is 0 on the fixed ones."""
    m, n = 5, 8
    a = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.7)
    relations = [str(rng.choice(["<=", ">=", "=="])) for _ in range(m)]
    shift = {"<=": 0.3, ">=": -0.3, "==": 0.0}
    lower, upper = _bounds(rng, n)
    b = a @ np.minimum(rng.uniform(0.0, 1.0, n), upper) \
        + np.array([shift[r] for r in relations])
    rows, cols = np.nonzero(a)
    return LinearProgram.build(str(rng.choice(["min", "max"])), rng.uniform(-1.0, 1.0, n),
                               rows, cols, a[rows, cols], relations, b,
                               lower=lower, upper=upper)


def test_dual_residual_matches_columnwise_reference(monkeypatch):
    sims = []

    class Recording(lp_module._Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(lp_module, "_Simplex", Recording)
    rng = np.random.default_rng(5)
    seen_free = seen_fixed = 0
    for _ in range(40):
        prog = _bounded_instance(rng)
        try:
            sol = solve(prog)
        except LpError:
            continue
        if sol.status != "optimal":
            continue
        sim, n = sims[-1], prog.num_vars
        n_slack = sum(rel != "==" for rel in prog.relations)
        assert sol.dual_residual == _reference_dual_residual(sim, n, n_slack)
        seen_free += int(np.isneginf(prog.lower).any())
        seen_fixed += int((sim.fixed[:n] & ~sim.in_basis[:n]).any())
    assert seen_free >= 5 and seen_fixed >= 5


@pytest.mark.parametrize("sense, value", [("min", 0.0), ("min", -0.0), ("max", 0.0)])
def test_dual_residual_exempts_nonbasic_fixed_columns(monkeypatch, sense, value):
    # x0 is fixed at value (a zero of either sign), and its reduced cost has
    # the sign that would push it below a lower bound; a fixed column may
    # sit at either bound, so no sign condition is broken
    sims = []

    class Recording(lp_module._Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(lp_module, "_Simplex", Recording)
    sign = 1.0 if sense == "min" else -1.0
    prog = lp(sense, [-sign, sign], [(0, 0, 1.0), (0, 1, 1.0)], [">="], [1.0],
              lower=[value, 0.0], upper=[value, np.inf])
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [value, 1.0 - value], atol=1e-12)
    assert (prog.objective - prog.matrix.T @ sol.duals)[0] * sign < 0.0
    assert sol.dual_residual <= 1e-12
    assert sol.dual_residual == _reference_dual_residual(sims[-1], 2, 1)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError, match="finite"):
        lp("min", [np.inf], [(0, 0, 1.0)], [">="], [0.0])


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    m, n = 4, 5
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    x_feas = rng.uniform(0.0, 2.0, size=n)
    relations = [rng.choice(["<=", ">=", "=="]) for _ in range(m)]
    slack = rng.uniform(0.0, 1.0, size=m)
    b = a @ x_feas
    for k, rel in enumerate(relations):
        if rel == "<=":
            b[k] += slack[k]
        elif rel == ">=":
            b[k] -= slack[k]
    c = rng.uniform(-1.0, 1.0, size=n)
    triplets = [(i, j, a[i, j]) for i in range(m) for j in range(n)]
    return lp("min", c, triplets, relations, b)


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_basis_enumeration(seed):
    prog = _random_instance(seed)
    sol = solve(prog)
    best, _ = enumerate_lp_optimum(prog)
    if sol.status == "optimal":
        assert best is not None
        assert abs(sol.objective_value - best) <= 1e-7
        assert sol.duality_gap <= GAP_TOL
        assert sol.primal_residual <= FEAS_TOL
        assert sol.dual_residual <= 1e-7
        # complementary slackness: dual * constraint slack vanishes
        ax = prog.matrix @ sol.x
        comp = np.abs(sol.duals * (ax - prog.rhs)).max()
        assert comp <= 1e-7
    else:
        assert sol.status == "unbounded" or best is None


def test_determinism():
    prog = _random_instance(1234)
    a = solve(prog)
    b = solve(prog)
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)


def _beale():
    # Beale's cycling example
    c = [-0.75, 150.0, -0.02, 6.0]
    triplets = [(0, 0, 0.25), (0, 1, -60.0), (0, 2, -1.0 / 25.0), (0, 3, 9.0),
                (1, 0, 0.5), (1, 1, -90.0), (1, 2, -1.0 / 50.0), (1, 3, 3.0),
                (2, 2, 1.0)]
    return lp("min", c, triplets, ["<=", "<=", "<="], [0.0, 0.0, 1.0])


def test_classic_degenerate_cycling_instance():
    # anti-cycling must terminate Beale's example at the optimum
    prog = _beale()
    sol = solve(prog)
    best, _ = enumerate_lp_optimum(prog)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - best) <= 1e-9
    assert abs(sol.objective_value - (-0.05)) <= 1e-9


@pytest.mark.parametrize("from_start", [False, True],
                         ids=["switch-after-one", "from-the-first-pivot"])
def test_bland_rule_reaches_the_reference_optimum(monkeypatch, from_start):
    # with BLAND_AFTER 1, the first degenerate step switches to Bland's rule
    # (entering and leaving by lowest index): Beale's example makes one, and
    # the random set none, so there the rule also runs from the first pivot
    monkeypatch.setattr(lp_module, "BLAND_AFTER", 1)
    bland_steps = []

    class Recorded(lp_module._Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.bland = from_start

        def _step(self, j, direction):
            bland_steps.append(self.bland)
            return super()._step(j, direction)

    monkeypatch.setattr(lp_module, "_Simplex", Recorded)
    reached = []
    for prog in [_beale()] + [_random_instance(seed) for seed in range(30)]:
        bland_steps.clear()
        sol = solve(prog)
        best, _ = enumerate_lp_optimum(prog)
        if sol.status == "optimal":
            assert abs(sol.objective_value - best) <= 1e-7
        else:
            assert sol.status == "unbounded" or best is None
        reached.append(any(bland_steps))
    assert reached[0] and all(reached) == from_start


def test_badly_scaled_rows():
    # one row carries sentinel-sized coefficients; scaling keeps it solvable
    prog = lp("min", [1.0, 1.0],
              [(0, 0, 1e6), (0, 1, 1e6), (1, 0, 1.0), (1, 1, -1.0)],
              [">=", ">="], [2e6, 0.5])
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x[0] + sol.x[1], 2.0, atol=1e-8)
    np.testing.assert_allclose(sol.objective_value, 2.0, atol=1e-8)


def test_subnormal_coefficient_drops_out_of_the_ratio_test():
    # x enters with a 1e-310 entry in the second row: below the pivot
    # tolerance it blocks nothing, though its ratio 1 / 1e-310 overflows
    sol = solve(lp("min", [-1.0, -1.0], [(0, 0, 1.0), (1, 0, 1e-310), (1, 1, 1.0)],
                   ["<=", "<="], [2.0, 1.0]))
    assert sol.status == "optimal"
    np.testing.assert_array_equal(sol.x, [2.0, 1.0])
    assert sol.objective_value == -3.0


def _outcome(prog, basis=None):
    """(status, objective) of a solve, or ("error",) on LpError."""
    try:
        sol = solve(prog, basis=basis)
    except LpError:
        return ("error",), None
    return (sol.status, sol.objective_value), sol


def _assert_same_solution(a, b):
    for field in dataclasses.fields(LpSolution):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def test_zero_pivot_warm_start_inverts_its_basis_twice(monkeypatch):
    # re-solving from the optimal basis inverts it at the warm start and
    # again at the clean-up after 0 pivots
    inverses = counted_inverses(monkeypatch)
    started = 0
    for seed in range(30):
        prog = _random_instance(seed)
        cold = solve(prog)
        if cold.status != "optimal":
            continue
        inverses.clear()
        warm = solve(prog, basis=cold.basis)
        if not warm.warm_started or warm.iterations:
            continue
        assert inverses == [(prog.num_constraints,) * 2] * 2
        started += 1
    assert started >= 10


@pytest.mark.parametrize("seed", range(30))
def test_warm_start_from_own_optimal_basis(seed):
    prog = _random_instance(seed)
    cold = solve(prog)
    if cold.status != "optimal":
        return
    warm = solve(prog, basis=cold.basis)
    assert warm.warm_started and warm.status == "optimal"
    assert abs(warm.objective_value - cold.objective_value) <= GAP_TOL
    assert warm.iterations <= cold.iterations


def _with_columns(prog, rng, k):
    """prog with k random columns appended after its structural ones."""
    extra = rng.uniform(-1.0, 1.0, (prog.num_constraints, k)) \
        * (rng.uniform(size=(prog.num_constraints, k)) < 0.7)
    lower, upper = _bounds(rng, k)
    return LinearProgram(
        prog.sense, np.append(prog.objective, rng.uniform(-1.0, 1.0, k)),
        np.hstack([prog.matrix, extra]), prog.relations, prog.rhs,
        np.append(prog.lower, lower), np.append(prog.upper, upper))


def test_warm_start_after_adding_columns_matches_cold_solve():
    # new columns start nonbasic at 0 and the old basis keeps its columns,
    # shifted past them; every nonbasic column sits at 0, so the start is
    # the old optimum, feasible for the grown program, and none falls back
    rng = np.random.default_rng(11)
    warm_count = fallbacks = 0
    for _ in range(300):
        prog = _bounded_instance(rng)
        k = int(rng.integers(1, 4))
        grown = _with_columns(prog, rng, k)
        first = _outcome(prog)[1]
        if first is None or first.status != "optimal":
            continue
        basis = np.where(first.basis >= prog.num_vars, first.basis + k, first.basis)
        (cold, _), (warm, sol) = _outcome(grown), _outcome(grown, basis)
        assert warm[0] == cold[0]
        if cold[0] == "optimal":
            assert abs(warm[1] - cold[1]) <= GAP_TOL
        if sol is not None:
            warm_count += sol.warm_started
            fallbacks += not sol.warm_started
    assert warm_count >= 100 and fallbacks == 0  # 139 and 0 when written


def test_singular_or_infeasible_basis_falls_back_to_the_cold_solve():
    # min x0 s.t. x0 >= 3, 0 * x1 >= -1: working columns [x0, x1 | two
    # slacks | two artificials]; x1's column is zero
    prog = lp("min", [1.0, 0.0], [(0, 0, 1.0), (1, 1, 0.0)], [">=", ">="], [3.0, -1.0])
    cold = solve(prog)
    assert cold.status == "optimal"
    for basis in ([1, 3], [2, 3]):   # singular; slack -3 below its bound
        sol = solve(prog, basis=basis)
        assert not sol.warm_started
        _assert_same_solution(sol, cold)
    assert solve(prog, basis=cold.basis).warm_started


@pytest.mark.parametrize("basis", [[0], [0, 0], [0, 6], [-1, 0]])
def test_warm_start_rejects_malformed_basis(basis):
    prog = lp("min", [1.0, 0.0], [(0, 0, 1.0), (1, 1, 1.0)], [">=", ">="], [3.0, 1.0])
    with pytest.raises(ValueError, match="basis must hold 2 distinct column indices"):
        solve(prog, basis=basis)


def _sentinel_instance(seed):
    """A 5 x 8 LP with one -1e6 coefficient, free and fixed-at-0 columns,
    and == rows that mostly have a zero right-hand side, so that phase 1 can
    end with an artificial basic at zero; plus a second objective."""
    rng = np.random.default_rng(seed)
    m, n = 5, 8
    a = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.7)
    a[rng.integers(m), rng.integers(n)] = -1e6
    relations = [str(rng.choice(["<=", ">=", "==", "=="])) for _ in range(m)]
    shift = {"<=": 0.3, ">=": -0.3, "==": 0.0}
    lower, upper = _bounds(rng, n)
    b = a @ np.minimum(rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.25), upper) \
        + np.array([shift[r] for r in relations])
    prog = LinearProgram("min", rng.uniform(-1.0, 1.0, n), a, tuple(relations), b,
                         lower, upper)
    return prog, rng.uniform(-1.0, 1.0, n)


def test_kept_basis_matrix_is_the_basis_after_every_update(monkeypatch):
    # after every pivot, drive-out pivot and refactorization the
    # kept basis matrix is a[:, basis] bit for bit, and binv inverts it
    events = []

    class Checked(lp_module._Simplex):
        stepping = False

        def _check(self, event):
            events.append(event)
            assert self.bmat.tobytes() == self.a[:, self.basis].tobytes(), event
            err = np.abs(self.binv @ self.a[:, self.basis] - np.eye(self.m)).max()
            assert err <= 1e-8, (event, err)

        def _refactor(self):
            super()._refactor()
            self._check("refactor")

        def _replace(self, r, j, w):
            super()._replace(r, j, w)
            self._check("pivot" if self.stepping else "drive-out")

        def _step(self, j, direction):
            self.stepping = True
            pivoted = super()._step(j, direction)
            self.stepping = False
            return pivoted

    monkeypatch.setattr(lp_module, "_Simplex", Checked)
    seen = set()
    for seed in (41, 47):
        prog, objective = _sentinel_instance(seed)
        assert np.any(prog.matrix == -1e6)
        events.clear()
        cold = solve(prog)
        assert cold.status == "optimal" and not cold.warm_started
        out = events.index("drive-out")  # phase 1 left an artificial basic
        assert "pivot" in events[:out] and "pivot" in events[out + 1:]
        seen.update(events)
        events.clear()
        warm = solve(dataclasses.replace(prog, objective=objective), basis=cold.basis)
        assert warm.warm_started and warm.status == "optimal" and "pivot" in events
        seen.update(events)
    assert seen == {"pivot", "drive-out", "refactor"}
