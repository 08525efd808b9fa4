import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import oracle
from riskmdp.certify import two_state_model
from riskmdp.errors import GuardError, ModelError
from riskmdp.extreal import NEG_INF, weighted_sum
from riskmdp.grid import build_grid
from riskmdp.model import KernelMatrix, MdpModel, StationaryPolicy, apply_policy
from riskmdp.oracle import (
    brute_force_lambda_star,
    cesaro_limit,
    game_payoff,
    growth_rate,
    kl_divergence,
    tilde_cost,
)

from helpers import corpus, dense_log_matrices, dense_log_rates, random_model

ONLY = StationaryPolicy(np.ones((2, 1)))


def uncontrolled(kernel, cost):
    kernel = np.asarray(kernel, dtype=float)
    s = kernel.shape[0]
    return MdpModel(states=tuple(str(i) for i in range(s)), actions=("a",),
                    kernel=kernel[None, :, :], cost=np.asarray(cost, dtype=float)[:, None])


# -- extended-real arithmetic -------------------------------------------------

def test_weighted_sum_zero_times_neg_inf_vanishes():
    assert weighted_sum([0.0, 1.0], [NEG_INF, 2.5]) == 2.5
    assert weighted_sum([0.5, 0.5], [NEG_INF, 2.5]) == NEG_INF
    assert weighted_sum([0.0], [NEG_INF]) == 0.0
    assert NEG_INF + 1.0 == NEG_INF  # plain IEEE rule we rely on


# -- KL divergence ------------------------------------------------------------

def test_kl_basics():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert math.isclose(kl_divergence([1.0, 0.0], [0.5, 0.5]), math.log(2))
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_nonnegative_and_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(4))
    p = rng.dirichlet(np.ones(4))
    div = kl_divergence(q, p)
    assert div >= 0.0
    assert kl_divergence(q, q) == 0.0
    if np.abs(q - p).max() > 1e-3:
        assert div > 0.0


# -- penalized reward ---------------------------------------------------------

def test_tilde_cost_at_kernel_row_is_plain_cost():
    model = random_model(3, 3, 2)
    for i in range(3):
        for u in range(2):
            assert math.isclose(tilde_cost(model, i, model.kernel[u, i], u),
                                model.cost[i, u])


def test_tilde_cost_two_state_chain():
    model = two_state_model(0.8)
    val = tilde_cost(model, 1, np.array([0.0, 1.0]), 0)
    assert math.isclose(val, 1.0 + math.log(0.8))


def test_tilde_cost_absolute_continuity_failure():
    model = two_state_model(0.8)
    # state 0 only reaches state 0; mass on state 1 is outside the class
    with pytest.raises(ModelError):
        tilde_cost(model, 0, np.array([0.5, 0.5]), 0)
    # inside the class but not absolutely continuous for this action
    deterministic = MdpModel(states=("x", "y"), actions=("a", "b"),
                             kernel=np.array([[[1.0, 0.0], [1.0, 0.0]],
                                              [[0.0, 1.0], [0.0, 1.0]]]),
                             cost=np.zeros((2, 2)))
    assert tilde_cost(deterministic, 0, np.array([0.0, 1.0]), 0) == NEG_INF


# -- growth rates -------------------------------------------------------------

def test_growth_rate_zero_cost_is_zero():
    model = uncontrolled([[0.4, 0.6], [0.3, 0.7]], [0.0, 0.0])
    rates = growth_rate(model, ONLY)
    np.testing.assert_allclose(rates.lam, 0.0, atol=1e-9)
    assert rates.converged


def test_growth_rate_single_state_equals_cost():
    model = uncontrolled([[1.0]], [0.37])
    rates = growth_rate(model, StationaryPolicy(np.ones((1, 1))))
    assert math.isclose(rates.lambda_max, 0.37, abs_tol=1e-12)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
def test_growth_rate_two_state_chain_supercritical(rho):
    rates = growth_rate(two_state_model(rho), ONLY)
    assert abs(rates.lam[0]) <= 1e-9
    assert math.isclose(rates.lam[1], 1.0 + math.log(rho), abs_tol=1e-8)
    assert rates.converged


def test_growth_rate_two_state_chain_subcritical():
    rates = growth_rate(two_state_model(math.exp(-2)), ONLY)
    np.testing.assert_allclose(rates.lam, 0.0, atol=1e-8)


def test_growth_rate_cost_shift_invariance():
    model = random_model(17, 3, 2)
    shifted = MdpModel(states=model.states, actions=model.actions,
                       kernel=model.kernel, cost=model.cost + 0.7)
    policy = StationaryPolicy.uniform(3, 2)
    base = growth_rate(model, policy)
    moved = growth_rate(shifted, policy)
    np.testing.assert_allclose(moved.lam, base.lam + 0.7, atol=1e-8)


def test_growth_rate_matches_dense_eigenvalue_oracle():
    # uncontrolled irreducible chains: rate = log of the dominant eigenvalue
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 5))
        kernel = rng.dirichlet(np.ones(s), size=s)
        cost = rng.uniform(0.0, 1.0, size=s)
        model = uncontrolled(kernel, cost)
        rates = growth_rate(model, StationaryPolicy(np.ones((s, 1))))
        m = np.exp(cost)[:, None] * kernel
        perron = max(np.linalg.eigvals(m).real)
        assert math.isclose(rates.lambda_max, math.log(perron), abs_tol=1e-8)


def test_growth_rate_period_two_chain_converges():
    model = uncontrolled([[0.0, 1.0], [1.0, 0.0]], [0.25, 0.75])
    rates = growth_rate(model, ONLY)
    assert rates.converged
    np.testing.assert_allclose(rates.lam, 0.5, atol=1e-9)


# -- brute force --------------------------------------------------------------

def test_brute_force_uncontrolled_matches_growth_rate():
    model = two_state_model(0.8)
    bf = brute_force_lambda_star(model)
    rates = growth_rate(model, ONLY)
    assert math.isclose(bf.value, rates.lambda_max, abs_tol=1e-9)
    np.testing.assert_allclose(bf.per_state, rates.lam, atol=1e-9)


def test_brute_force_subcritical_value_is_zero():
    bf = brute_force_lambda_star(two_state_model(math.exp(-2)))
    assert abs(bf.value) <= 1e-8


def test_brute_force_picks_dominating_action():
    # identical kernels, one action strictly cheaper everywhere
    kernel = np.array([[[0.5, 0.5], [0.4, 0.6]]] * 2)
    cost = np.array([[0.9, 0.1], [0.8, 0.2]])
    model = MdpModel(states=("x", "y"), actions=("dear", "cheap"),
                     kernel=kernel, cost=cost)
    bf = brute_force_lambda_star(model)
    assert bf.argmin.choice == (1, 1)


def _tied_model():
    # identical actions: every pure policy ties, lexicographic order decides
    kernel = np.array([[[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.7, 0.0, 0.3]]] * 2)
    return MdpModel(states=("x", "y", "z"), actions=("a", "b"),
                    kernel=kernel, cost=np.array([[0.3, 0.3], [0.1, 0.1], [0.6, 0.6]]))


@pytest.mark.parametrize("entries", [1, 20, 100, 1000])
def test_brute_force_blocks_give_the_one_batch_result(model_corpus, monkeypatch, entries):
    # 1000 entries make blocks of 7 to 14 policies; in most of them half the
    # policies converge, and leave the batch, before the slowest one
    models = [model for _, model in model_corpus] + [_tied_model()]
    whole = [brute_force_lambda_star(model) for model in models]
    monkeypatch.setattr(oracle, "BLOCK_ENTRIES", entries)
    for model, expected in zip(models, whole):
        got = brute_force_lambda_star(model)
        assert got.value == expected.value
        assert got.argmin == expected.argmin
        assert np.array_equal(got.per_state, expected.per_state)
        assert got.converged == expected.converged
    assert whole[-1].argmin.choice == (0, 0, 0)


# -- support-column iteration against the dense reference ----------------------

def _named(kernel, cost):
    m, s, _ = kernel.shape
    return MdpModel(states=tuple(f"s{i}" for i in range(s)),
                    actions=tuple(f"a{u}" for u in range(m)),
                    kernel=kernel, cost=cost)


def _lazy_ring(seed, s, m):
    """Each state stays put or moves to the next one, split near a per-state base."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for i in range(s):
        base = rng.uniform(0.25, 0.75)
        for u in range(m):
            x = base + rng.uniform(-0.005, 0.005)
            kernel[u, i, i] = x
            kernel[u, i, (i + 1) % s] = 1.0 - x
    return _named(kernel, rng.uniform(0.0, 1.0, size=(s, m)))


def _wide(seed, s, m, successors=4):
    """Each state reaches the next one and three others, rows near a shared base."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for i in range(s):
        others = [j for j in range(s) if j != (i + 1) % s]
        cols = [(i + 1) % s] + list(rng.choice(others, successors - 1, replace=False))
        base = rng.dirichlet(np.ones(successors))
        for u in range(m):
            row = np.clip(base + rng.uniform(-0.005, 0.005, successors), 0.01, None)
            kernel[u, i, cols] = row / row.sum()
    return _named(kernel, rng.uniform(0.0, 1.0, size=(s, m)))


def _trap():
    """State 0 absorbs; the others drift down to it or up the chain."""
    s = 5
    kernel = np.zeros((2, s, s))
    kernel[:, 0, 0] = 1.0
    for i in range(1, s):
        for u, down in enumerate((0.3, 0.6)):
            kernel[u, i, i - 1] = down
            kernel[u, i, (i + 1) % s] = 1.0 - down
    cost = np.array([[0.9, 0.95], [0.1, 0.4], [0.2, 0.3], [0.5, 0.1], [0.3, 0.3]])
    return _named(kernel, cost)


def _single_state():
    return _named(np.ones((3, 1, 1)), np.array([[0.37, 0.1, 2.5]]))


def _differing_supports():
    """Actions at a state reach different successors: the union support has
    4 columns at the last state and 2 or 1 at the others (padded slots)."""
    kernel = np.array([
        [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.4, 0.0, 0.6]],
        [[0.0, 0.0, 1.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.7, 0.0, 0.3, 0.0]],
    ])
    cost = np.array([[0.2, 0.9], [0.5, 0.1], [0.4, 0.6], [0.3, 0.8]])
    return _named(kernel, cost)


def _policies(model, limit=128, seed=0):
    """All pure policies, or `limit` of them drawn at random past that count."""
    s, m = model.num_states, model.num_actions
    if m**s <= limit:
        return np.array(list(itertools.product(range(m), repeat=s)))
    return np.random.default_rng(seed).integers(0, m, size=(limit, s))


def _support_rates(model, choices, max_iters=oracle.MAX_POWER_ITERS):
    cols, pad = oracle._support_columns(model.support)
    logc = oracle._pure_log_entries(model, choices, cols, pad)
    return oracle._batched_log_rates(logc, cols, oracle.RATE_TOL, max_iters,
                                     oracle.RATE_WINDOW)


def _dense_rates(model, choices, max_iters=oracle.MAX_POWER_ITERS):
    return dense_log_rates(dense_log_matrices(model, choices), oracle.RATE_TOL,
                           max_iters, oracle.RATE_WINDOW)


BIT_FOR_BIT = {
    **dict(corpus()),
    "ring-s10m2": random_model(41, 10, 2),
    "ring-s10m3": random_model(42, 10, 3),
    "lazy-s10m2": _lazy_ring(43, 10, 2),
    "lazy-s10m3": _lazy_ring(44, 10, 3),
    "wide-s6m2": _wide(45, 6, 2),
    "trap": _trap(),
    "single-state": _single_state(),
    "differing-supports": _differing_supports(),
}


def test_support_columns_pad_short_rows():
    cols, pad = oracle._support_columns(_differing_supports().support)
    np.testing.assert_array_equal(cols, [[1, 2, 2, 2], [0, 1, 1, 1], [2, 2, 2, 2], [0, 1, 2, 3]])
    np.testing.assert_array_equal(pad, np.arange(4)[None, :] >= np.array([[2], [2], [1], [4]]))


@pytest.mark.parametrize("name", sorted(BIT_FOR_BIT))
def test_support_iteration_equals_dense_bit_for_bit(name):
    # at most 2 finite entries per row, or s < 8 (numpy sums fewer than 8
    # terms left to right): the slot-order sum and the dense reduction add
    # the same nonzero terms in the same order
    model = BIT_FOR_BIT[name]
    choices = _policies(model)
    est, iters, conv = _support_rates(model, choices)
    ref_est, ref_iters, ref_conv = _dense_rates(model, choices)
    assert np.array_equal(est, ref_est)
    assert np.array_equal(iters, ref_iters)
    assert np.array_equal(conv, ref_conv)
    assert conv.all()


@pytest.mark.parametrize("quantile", [25, 75])
def test_support_iteration_stopped_partway_equals_dense(quantile):
    # half the batch converges before the slowest policy, so converged
    # policies leave the batch while the rest keep iterating; stopping at the
    # 25th percentile leaves converged policies in the batch (fewer than half
    # have converged), at the 75th the batch has been compacted
    model = BIT_FOR_BIT["lazy-s10m2"]
    choices = _policies(model)
    _, iters, _ = _support_rates(model, choices)
    assert np.median(iters) < iters.max()
    cut = int(np.percentile(iters, quantile))
    est, got_iters, conv = _support_rates(model, choices, max_iters=cut)
    ref_est, ref_iters, ref_conv = _dense_rates(model, choices, max_iters=cut)
    assert 0.0 < conv.mean() < 1.0
    assert (conv.mean() < 0.5) == (quantile < 50)
    assert np.array_equal(est, ref_est)
    assert np.array_equal(got_iters, ref_iters)
    assert np.array_equal(conv, ref_conv)


@pytest.mark.parametrize("name", ["ring-s10m3", "differing-supports", "single-state"])
def test_growth_rate_equals_dense_reference(name):
    model = BIT_FOR_BIT[name]
    s, m = model.num_states, model.num_actions
    rng = np.random.default_rng(7)
    for policy in (StationaryPolicy.pure(rng.integers(0, m, size=s), m),
                   StationaryPolicy(rng.dirichlet(np.ones(m), size=s))):
        p_v, c_v = apply_policy(model, policy)
        with np.errstate(divide="ignore"):
            logm = c_v[:, None] + np.log(p_v)
        est, iters, conv = dense_log_rates(logm[None], oracle.RATE_TOL,
                                           oracle.MAX_POWER_ITERS, oracle.RATE_WINDOW)
        rates = growth_rate(model, policy)
        assert np.array_equal(rates.lam, est[0])
        assert rates.iterations == iters[0]
        assert rates.converged == conv[0]


@pytest.mark.parametrize("seed", [51, 52])
def test_support_iteration_close_to_dense_on_wide_rows(seed):
    # 4 finite entries per row at s = 10: the dense pairwise sum and the
    # slot-order sum may round differently, within 1e-14
    model = _wide(seed, 10, 2)
    choices = _policies(model)
    est, _, conv = _support_rates(model, choices)
    ref_est, _, ref_conv = _dense_rates(model, choices)
    assert conv.all() and ref_conv.all()
    assert np.abs(est - ref_est).max() <= 1e-14
    assert est.max(axis=1).argmin() == ref_est.max(axis=1).argmin()


def test_brute_force_guard():
    s, m = 7, 8  # 8^7 > 10^6 policies
    rng = np.random.default_rng(0)
    kernel = np.stack([rng.dirichlet(np.ones(s), size=s) for _ in range(m)])
    model = MdpModel(states=tuple(map(str, range(s))),
                     actions=tuple(map(str, range(m))),
                     kernel=kernel, cost=np.zeros((s, m)))
    with pytest.raises(GuardError):
        brute_force_lambda_star(model)


# -- Cesaro limits ------------------------------------------------------------

def test_cesaro_identity():
    np.testing.assert_array_equal(cesaro_limit(np.eye(3)), np.eye(3))


def test_cesaro_irreducible_two_state_closed_form():
    a, b = 0.3, 0.45
    q = cesaro_limit(np.array([[1 - a, a], [b, 1 - b]]))
    row = np.array([b / (a + b), a / (a + b)])
    np.testing.assert_allclose(q, np.vstack([row, row]), atol=1e-12)


def test_cesaro_two_state_chain_absorbs():
    q = cesaro_limit(np.array([[1.0, 0.0], [0.2, 0.8]]))
    np.testing.assert_allclose(q, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_cesaro_multichain_with_transient_state():
    p = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.25, 0.25, 0.5],
    ])
    q = cesaro_limit(p)
    np.testing.assert_allclose(q[2], [0.5, 0.5, 0.0], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cesaro_properties_random_chain(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 5))
    p = rng.dirichlet(np.ones(s), size=s)
    q = cesaro_limit(p)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(q @ q, q, atol=1e-9)
    np.testing.assert_allclose(q @ p, q, atol=1e-9)
    np.testing.assert_allclose(p @ q, q, atol=1e-9)


def test_cesaro_rejects_bad_input():
    with pytest.raises(ValueError):
        cesaro_limit(np.array([[0.5, 0.4], [0.5, 0.5]]))


# -- game payoff --------------------------------------------------------------

def test_payoff_absorbing_zero_cost_state():
    model = uncontrolled([[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    q = KernelMatrix.for_model(model, np.array([[1.0, 0.0], [1.0, 0.0]]))
    pv = game_payoff(model, q, ONLY)
    np.testing.assert_allclose(pv.phi, [0.0, 0.0], atol=1e-12)


def test_payoff_at_kernel_row_is_invariant_average_of_cost():
    model = random_model(31, 3, 2)
    pure = StationaryPolicy.pure([0, 1, 0], 2)
    from riskmdp.model import apply_policy
    p_v, c_v = apply_policy(model, pure)
    q = KernelMatrix.for_model(model, p_v)
    pv = game_payoff(model, q, pure)
    ces = cesaro_limit(p_v)
    np.testing.assert_allclose(pv.phi, ces @ c_v, atol=1e-10)


def test_payoff_two_state_chain_sticky_row():
    model = two_state_model(0.8)
    q = KernelMatrix.for_model(model, np.array([[1.0, 0.0], [0.0, 1.0]]))
    pv = game_payoff(model, q, ONLY)
    assert math.isclose(pv.phi[1], 1.0 + math.log(0.8))
    assert math.isclose(pv.phi_max, 1.0 + math.log(0.8))


def test_payoff_neg_inf_only_with_positive_weight():
    deterministic = MdpModel(states=("x", "y"), actions=("a",),
                             kernel=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
                             cost=np.array([[0.0], [5.0]]))
    # the game row leaves y immediately; its -inf-free payoff comes from x
    q = KernelMatrix.for_model(deterministic, np.array([[1.0, 0.0], [1.0, 0.0]]))
    pv = game_payoff(deterministic, q, StationaryPolicy(np.ones((2, 1))))
    np.testing.assert_allclose(pv.phi, [0.0, 0.0], atol=1e-12)


def test_variational_identity_two_state_chain():
    # fixed policy: the best grid response approaches the growth rate
    model = two_state_model(0.8)
    rates = growth_rate(model, ONLY)
    gaps = {}
    for n in (4, 6, 8):
        grid = build_grid(model, n)
        best = -math.inf
        for row in grid.rows[1]:
            q = KernelMatrix.for_model(model, np.vstack([[1.0, 0.0], row]))
            best = max(best, game_payoff(model, q, ONLY).phi_max)
        gaps[n] = rates.lambda_max - best
    assert gaps[8] <= 2e-2
    assert gaps[4] >= gaps[6] >= gaps[8] >= -1e-12


def test_variational_identity_random_uncontrolled():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.2, 0.8)
    model = uncontrolled([[x, 1 - x], [1.0, 0.0]], rng.uniform(0.0, 1.0, 2))
    rates = growth_rate(model, ONLY)
    grid = build_grid(model, 8)
    best = -math.inf
    for row in grid.rows[0]:
        q = KernelMatrix.for_model(model, np.vstack([row, [1.0, 0.0]]))
        best = max(best, game_payoff(model, q, ONLY).phi_max)
    assert abs(rates.lambda_max - best) <= 2e-2
