import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import game, grid as lattice
from riskmdp.certify import two_state_model
from riskmdp.errors import GuardError
from riskmdp.model import MdpModel

from helpers import build_grid, enumerate_rows, greedy_numerators, random_model, solve_game


def test_enumerate_rows_small_cases():
    assert enumerate_rows(2, 1) == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_rows(1, 0) == [(1,)]
    assert enumerate_rows(1, 5) == [(32,)]
    assert len(enumerate_rows(3, 2)) == math.comb(6, 2) == 15


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_enumerate_rows_count_matches_formula(k, n):
    rows = enumerate_rows(k, n)
    assert len(rows) == math.comb(2**n + k - 1, k - 1)
    assert all(sum(r) == 2**n for r in rows)
    assert rows == sorted(set(rows))  # duplicate-free, ascending lexicographic


def test_enumeration_guard():
    # C(259, 3) = 2 861 969 rows
    with pytest.raises(GuardError):
        enumerate_rows(4, 8)


def test_grid_two_state_chain():
    model = two_state_model(0.8)
    grid = build_grid(model, 2)
    assert grid.row_count(0) == 1
    np.testing.assert_array_equal(grid.rows[0], [[1.0, 0.0]])
    assert grid.row_count(1) == 5
    assert {row[1] for row in grid.rows[1]} == {0.0, 0.25, 0.5, 0.75, 1.0}


def test_grid_resolution_zero_is_dirac_rows():
    model = random_model(21, 3, 2)
    grid = build_grid(model, 0)
    # the library's seed rows are the enumerated n=0 grid, in the same order
    for got, want in zip(game.build_grid(model), grid.stacked()):
        np.testing.assert_array_equal(got, want)
    for i in range(3):
        supp = grid.supports[i]
        assert grid.row_count(i) == len(supp)
        for row in grid.rows[i]:
            assert set(np.flatnonzero(row)) <= set(supp)
            assert sorted(row)[-1] == 1.0


def test_rows_vanish_off_support_and_sum_exactly_to_one():
    model = random_model(22, 4, 2)
    grid = build_grid(model, 3)
    for i in range(4):
        off = [j for j in range(4) if j not in grid.supports[i]]
        assert np.all(grid.rows[i][:, off] == 0.0)
        # dyadic rows over a common denominator add up exactly in binary
        assert np.all(grid.rows[i].sum(axis=1) == 1.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rows_per_state_when_support_sizes_repeat(n):
    # states 0, 1, 3 share support size 2 on different supports; state 2 has 3
    kernel = np.array([[[0.5, 0.5, 0.0, 0.0],
                        [0.0, 0.3, 0.7, 0.0],
                        [0.2, 0.0, 0.3, 0.5],
                        [0.6, 0.0, 0.0, 0.4]]])
    model = MdpModel(states=("a", "b", "c", "d"), actions=("x",),
                     kernel=kernel, cost=np.zeros((4, 1)))
    grid = build_grid(model, n)
    for i in range(4):
        supp = list(grid.supports[i])
        nums = enumerate_rows(len(supp), n)
        expected = np.zeros((len(nums), 4))
        expected[:, supp] = np.asarray(nums, dtype=float) / 2**n
        assert grid.numerators[i] == tuple(nums)
        assert np.array_equal(grid.rows[i], expected)
        assert not grid.rows[i].flags.writeable
    assert [len(grid.supports[i]) for i in range(4)] == [2, 2, 3, 2]
    # a solve counts the rows of the grid it never builds
    assert solve_game(model, n).num_constraints == 2 * len(grid.stacked()[1])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_nesting_rows_double_into_next_resolution(n):
    model = random_model(23, 3, 3)
    fine = {nums for nums in build_grid(model, n + 1).numerators[1]}
    for nums in build_grid(model, n).numerators[1]:
        assert tuple(2 * k for k in nums) in fine


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_density_of_grid_rows(seed, n):
    model = random_model(seed % 50 + 1, 3, 2)
    grid = build_grid(model, n)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(0, 3))
    supp = list(grid.supports[i])
    target = np.zeros(3)
    target[supp] = rng.dirichlet(np.ones(len(supp)))
    dist = np.abs(grid.rows[i] - target[None, :]).max(axis=1).min()
    assert dist <= 2.0**-n * model.num_states


def _lattice_objective(nums, z, total):
    """sum_j q_j z_j - q_j log q_j of each row of numerators, q = nums / total."""
    q = np.atleast_2d(np.asarray(nums, dtype=float)) / total
    return (q * z).sum(axis=1) - (q * np.log(np.where(q > 0.0, q, 1.0))).sum(axis=1)


def test_lattice_numerators_equal_enumeration():
    # 300 seeded instances: support sizes 1-5 (k=1 included), resolutions
    # 0-5 (N=1 included), a third of them with exactly tied z entries, where
    # the greedy order gives the extra units to the lowest indices, so the
    # result is the lexicographically largest optimal row
    rng = np.random.default_rng(2024)
    grids = {}
    for case in range(300):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(0, 6 if k <= 3 else 5))
        if case % 3 == 0:
            z = rng.choice([0.0, 0.5], size=k) if case % 2 else np.zeros(k)
        else:
            z = rng.normal(0.0, 2.0, size=k)
        if (k, n) not in grids:
            grids[k, n] = enumerate_rows(k, n)
        nums = grids[k, n]
        values = _lattice_objective(nums, z, 2**n)
        got = lattice.lattice_numerators(z, n)
        assert got.sum() == 2**n and got.min() >= 0
        assert _lattice_objective(got, z, 2**n)[0] >= values.max() - 1e-12, case
        best = [r for r, v in zip(nums, values) if v >= values.max() - 1e-12]
        assert tuple(int(c) for c in got) == max(best), case


# from n = 47 consecutive gains can tie or swap in doubles; at n = 51 this z
# once made the same coordinate both the best unit out and the worst one
# held, and a swap of a unit with itself never ended
ROUNDING_TIES_Z = np.array([1.509515676777226, 2.3459080601269617, 2.938755386394278,
                            -7.2092300902637145, 2.7103209990888923, -3.142343329741574,
                            3.3422057242709187, 1.0099329838268958])


@pytest.mark.parametrize("n", [47, 51, 53])
def test_lattice_numerators_end_where_rounding_ties_units(n):
    z = ROUNDING_TIES_Z
    got = lattice.lattice_numerators(z, n)
    assert int(got.sum()) == 2**n and got.min() >= 0
    row = got / 2.0**n
    assert row.sum() == 1.0 and np.array_equal(row * 2.0**n, got.astype(float))


def _assert_stack_equals_one_row_calls(z, n):
    got = lattice.lattice_numerators(z, n)
    assert got.dtype == np.int64 and got.shape == z.shape
    for row, nums in zip(z, got):
        finite = np.isfinite(row)
        want = np.zeros(len(row), dtype=np.int64)
        if finite.any():
            want[finite] = lattice.lattice_numerators(row[finite], n)
            assert np.array_equal(want[finite], greedy_numerators(row[finite], n))
        assert nums.tobytes() == want.tobytes()


def test_stacked_lattice_rows_equal_one_row_calls():
    # a stack, -inf off each row's support, gives bit for bit the 1-D call
    # on each row's finite entries (zeros for a row with none), and that
    # call gives the one-unit-at-a-time greedy's numerators: random rows of
    # up to 9 entries, one finite entry, N = 1, exact ties, and the
    # rounding-ties row beside an empty row
    rng = np.random.default_rng(34)
    for n in (0, 1, 2, 5, 8, 20, 47, 51, 53):
        for _ in range(20):
            width = int(rng.integers(1, 10))
            z = np.full((int(rng.integers(1, 8)), width), -np.inf)
            for row in z:
                at = np.sort(rng.permutation(width)[:int(rng.integers(0, width + 1))])
                row[at] = rng.choice([rng.normal(0.0, 3.0, size=len(at)),
                                      rng.integers(-1, 2, size=len(at)) / 2.0,
                                      np.zeros(len(at))])
            _assert_stack_equals_one_row_calls(z, n)
    for n in (47, 51, 53):
        z = np.full((3, 10), -np.inf)
        z[0, 1:9] = ROUNDING_TIES_Z
        z[2, [0, 4, 9]] = ROUNDING_TIES_Z[[6, 2, 6]]
        _assert_stack_equals_one_row_calls(z, n)
    # with numpy's logs, the ranks of this row would end it one unit apart
    z = np.array([[-np.inf, -6.245741765236176, 0.4256393173002515, -np.inf, 0.6494551815002811]])
    _assert_stack_equals_one_row_calls(z, 52)
    assert not lattice.lattice_numerators(np.full((2, 3), -np.inf), 4).any()
