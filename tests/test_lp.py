import numpy as np
import pytest

from riskmdp import lp as lp_module
from riskmdp.lp import FEAS_TOL, GAP_TOL, LinearProgram, LpError, solve

from helpers import enumerate_lp_optimum


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


def test_bounded_variable_handling():
    # upper bounds finite: max x + y, x <= 1.5 (bound), x + y <= 2
    prog = lp("max", [1.0, 1.0], [(0, 0, 1.0), (0, 1, 1.0)], ["<="], [2.0],
              lower=[0.0, 0.0], upper=[1.5, 0.25])
    sol = solve(prog)
    np.testing.assert_allclose(sol.x, [1.5, 0.25])
    np.testing.assert_allclose(sol.objective_value, 1.75)


def test_inconsistent_bounds_are_infeasible():
    prog = lp("min", [1.0], [(0, 0, 1.0)], [">="], [0.0],
              lower=[1.0], upper=[0.5])
    assert solve(prog).status == "infeasible"


def test_duplicate_triplets_are_coalesced():
    prog = lp("min", [1.0], [(0, 0, 0.5), (0, 0, 0.5)], [">="], [3.0])
    assert prog.vals.tolist() == [1.0]
    with pytest.raises(ValueError, match="duplicate"):
        LinearProgram(sense="min", objective=np.ones(1),
                      rows=np.array([0, 0]), cols=np.array([0, 0]),
                      vals=np.array([0.5, 0.5]), relations=("<=",),
                      rhs=np.array([1.0]), lower=np.zeros(1), upper=np.full(1, np.inf))


def _direct(rows, cols):
    """Constructor call with the given triplet order and unit values."""
    return LinearProgram(sense="min", objective=np.ones(3),
                         rows=np.array(rows), cols=np.array(cols),
                         vals=np.ones(len(rows)), relations=("<=", "<="),
                         rhs=np.ones(2), lower=np.zeros(3), upper=np.full(3, np.inf))


def test_constructor_accepts_unsorted_unique_triplets():
    prog = _direct([1, 0, 1, 0], [2, 1, 0, 0])
    assert prog.dense_matrix().tolist() == [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


@pytest.mark.parametrize("rows,cols", [
    ([0, 1, 0], [2, 0, 2]),        # unsorted, duplicate apart
    ([0, 0, 1], [1, 1, 2]),        # sorted, duplicate adjacent
    ([1, 1], [0, 0]),
])
def test_constructor_rejects_duplicate_triplets(rows, cols):
    with pytest.raises(ValueError, match="duplicate"):
        _direct(rows, cols)


def _reference_dual_residual(sim, n, n_slack):
    """The column-by-column statement of the reduced-cost sign conditions."""
    _, y_int = sim._reduced_costs()
    d = sim.c[: n + n_slack] - sim.a[:, : n + n_slack].T @ y_int
    worst = 0.0
    for j in range(n + n_slack):
        if sim.in_basis[j]:
            worst = max(worst, abs(d[j]))
        elif j < n and np.isneginf(sim.lower[j]) and np.isposinf(sim.upper[j]):
            worst = max(worst, abs(d[j]))
        elif j < n and sim.at_upper[j]:
            worst = max(worst, max(0.0, d[j]))
        else:
            worst = max(worst, max(0.0, -d[j]))
    return worst


def _bounded_instance(rng):
    """Random sparse LP with free columns and finite upper bounds."""
    m, n = 5, 8
    a = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.7)
    relations = [str(rng.choice(["<=", ">=", "=="])) for _ in range(m)]
    shift = {"<=": 0.3, ">=": -0.3, "==": 0.0}
    b = a @ rng.uniform(0.0, 1.0, n) + np.array([shift[r] for r in relations])
    lower = np.where(rng.uniform(size=n) < 0.3, -np.inf, 0.0)
    upper = np.where(rng.uniform(size=n) < 0.4, 1.2, np.inf)
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
    seen_free = seen_at_upper = 0
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
        seen_at_upper += int((sim.at_upper[:n] & ~sim.in_basis[:n]).any())
    assert seen_free >= 5 and seen_at_upper >= 5


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
        ax = prog.dense_matrix() @ sol.x
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


def test_classic_degenerate_cycling_instance():
    # Beale's cycling example; anti-cycling must terminate it at the optimum
    c = [-0.75, 150.0, -0.02, 6.0]
    triplets = [(0, 0, 0.25), (0, 1, -60.0), (0, 2, -1.0 / 25.0), (0, 3, 9.0),
                (1, 0, 0.5), (1, 1, -90.0), (1, 2, -1.0 / 50.0), (1, 3, 3.0),
                (2, 2, 1.0)]
    prog = lp("min", c, triplets, ["<=", "<=", "<="], [0.0, 0.0, 1.0])
    sol = solve(prog)
    best, _ = enumerate_lp_optimum(prog)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - best) <= 1e-9
    assert abs(sol.objective_value - (-0.05)) <= 1e-9


def test_badly_scaled_rows():
    # one row carries sentinel-sized coefficients; scaling keeps it solvable
    prog = lp("min", [1.0, 1.0],
              [(0, 0, 1e6), (0, 1, 1e6), (1, 0, 1.0), (1, 1, -1.0)],
              [">=", ">="], [2e6, 0.5])
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x[0] + sol.x[1], 2.0, atol=1e-8)
    np.testing.assert_allclose(sol.objective_value, 2.0, atol=1e-8)
