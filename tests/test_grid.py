import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import grid as lattice
from riskmdp.certify import two_state_model
from riskmdp.errors import GuardError
from riskmdp.model import MdpModel

from helpers import build_grid, enumerate_rows, random_model, solve_game


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
    for got, want in zip(lattice.build_grid(model).stacked(), grid.stacked()):
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
    assert solve_game(model, n).num_constraints == 2 * grid.total_rows


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


@pytest.mark.parametrize("n", [47, 51, 53])
def test_lattice_numerators_end_where_rounding_ties_units(n):
    # from n = 47 consecutive gains can tie or swap in doubles; at n = 51
    # this z once made the same coordinate both the best unit out and the
    # worst one held, and a swap of a unit with itself never ended
    z = np.array([1.509515676777226, 2.3459080601269617, 2.938755386394278, -7.2092300902637145,
                  2.7103209990888923, -3.142343329741574, 3.3422057242709187, 1.0099329838268958])
    got = lattice.lattice_numerators(z, n)
    assert int(got.sum()) == 2**n and got.min() >= 0
    row = got / 2.0**n
    assert row.sum() == 1.0 and np.array_equal(row * 2.0**n, got.astype(float))
