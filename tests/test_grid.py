import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp.certify import two_state_model
from riskmdp.errors import GuardError
from riskmdp.grid import build_grid, enumerate_rows
from riskmdp.model import MdpModel

from helpers import random_model


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
