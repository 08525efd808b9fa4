import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskmdp
from riskmdp import oracle
from riskmdp.certify import two_state_model
from riskmdp.errors import GuardError, ModelError
from riskmdp.game import tilde_cost_table
from riskmdp.model import KernelMatrix, MdpModel, StationaryPolicy, apply_policy
from riskmdp.oracle import (
    NEG_INF,
    brute_force_lambda_star,
    growth_rate,
    kl_divergence,
    perron_policy,
    tilde_cost,
)

from helpers import (
    build_grid,
    cesaro_limit,
    class_log_rho,
    corpus,
    dense_log_matrices,
    dense_log_rates,
    game_payoff,
    pure_log_rho_min,
    pure_policy,
    random_model,
    structured_model,
    two_successor_model,
    uniform_policy,
    weighted_sum,
)

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


@pytest.mark.parametrize("tiny", [1e-310, 5e-324])
def test_tilde_cost_scores_subnormal_kernel_entries(tiny):
    # q / p overflows where p is below the smallest normal double; the
    # stacked table takes the logs apart and stays finite
    model = uncontrolled([[1.0, tiny, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]],
                         [2.0, -1.0, 0.5])
    for q in ([0.5, 0.5, 0.0], [1e-3, 1.0 - 1e-3, 0.0], [1.0 - tiny, tiny, 0.0]):
        q = np.array(q)
        val = tilde_cost(model, 0, q, 0)
        assert math.isfinite(val)
        assert val == pytest.approx(float(tilde_cost_table(model, 0, q[None])[0, 0]),
                                    rel=1e-12)


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
    policy = uniform_policy(3, 2)
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
    # 20 and 100 entries make blocks of 2 to 25 policies, so policies are
    # dropped against upper bounds found in earlier blocks; 1000 entries hold
    # every corpus model in one block
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


def _support_rates(model, choices):
    cols, pad = oracle._support_columns(model.support)
    logc = oracle._pure_log_entries(model, choices, cols, pad)
    graph = oracle._support_graph(model, logc, cols)
    lam, lo, hi, steps, closed, _ = oracle._class_rates(logc, cols, graph)
    return lam.T, lo, hi, steps, closed


def _dense_rates(model, choices):
    return dense_log_rates(dense_log_matrices(model, choices), oracle.RATE_TOL,
                           oracle.MAX_POWER_ITERS)


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
    "two-successor-s4m2": two_successor_model(1, 4, 2),
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
    got = _support_rates(model, choices)
    ref = _dense_rates(model, choices)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    _, lo, hi, _, closed = got
    # every policy closed its bracket or was dropped against a better one
    assert (closed | (lo > hi.min())).all()
    assert closed[lo <= hi.min()].all()


@pytest.mark.parametrize("quantile", [25, 75])
def test_support_iteration_stopped_partway_equals_dense(monkeypatch, quantile):
    # policies are dropped at many different steps, and the batch sheds them
    # once half of it has stopped: at the 25th percentile of the step counts
    # fewer than half have stopped, at the 75th more than half (the batch has
    # been compacted), and in both some stopped chains were dropped while
    # others are still iterating
    model = BIT_FOR_BIT["lazy-s10m2"]
    choices = _policies(model)
    steps = _support_rates(model, choices)[3]
    cut = int(np.percentile(steps, quantile))
    monkeypatch.setattr(oracle, "MAX_POWER_ITERS", cut)
    got = _support_rates(model, choices)
    ref = _dense_rates(model, choices)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    _, _, _, got_steps, closed = got
    stopped = got_steps < cut
    assert (stopped.mean() < 0.5) == (quantile < 50)
    assert (stopped & ~closed).any()
    assert (~stopped & ~closed).any()


@pytest.mark.parametrize("name", ["differing-supports", "two-successor-s4m2", "trap", "wide-s6m2"])
def test_early_restart_equals_dense_bit_for_bit(monkeypatch, name):
    # a restart after the first step reaches every policy, so each one's
    # Perron estimate (padded slots, per-class scales, states on no cycle) is
    # compared with the dense reference's
    monkeypatch.setattr(oracle, "RESTART_STEP", 1)
    model = BIT_FOR_BIT[name]
    choices = _policies(model)
    for a, b in zip(_support_rates(model, choices), _dense_rates(model, choices)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["ring-s10m3", "differing-supports", "single-state"])
def test_growth_rate_equals_dense_reference(name):
    model = BIT_FOR_BIT[name]
    s, m = model.num_states, model.num_actions
    rng = np.random.default_rng(7)
    for policy in (pure_policy(rng.integers(0, m, size=s), m),
                   StationaryPolicy(rng.dirichlet(np.ones(m), size=s))):
        p_v, c_v = apply_policy(model, policy)
        with np.errstate(divide="ignore"):
            logm = c_v[:, None] + np.log(p_v)
        lam, _, _, steps, closed = dense_log_rates(logm[None], oracle.RATE_TOL,
                                                   oracle.MAX_POWER_ITERS)
        rates = growth_rate(model, policy)
        assert np.array_equal(rates.lam, lam[0])
        assert rates.iterations == steps[0]
        assert rates.converged == closed[0]


@pytest.mark.parametrize("seed", [51, 52])
def test_support_iteration_close_to_dense_on_wide_rows(seed):
    # 4 finite entries per row at s = 10: the dense pairwise sum and the
    # slot-order sum may round differently, within 1e-14
    model = _wide(seed, 10, 2)
    choices = _policies(model)
    lam, lo, hi, _, closed = _support_rates(model, choices)
    ref_lam, ref_lo, ref_hi, _, ref_closed = _dense_rates(model, choices)
    winner = np.flatnonzero(lo <= hi.min())[0]
    assert closed[winner] and ref_closed[winner]
    assert winner == np.flatnonzero(ref_lo <= ref_hi.min())[0]
    assert np.abs(lam - ref_lam).max() <= 1e-14


def test_brute_force_guard():
    s, m = 7, 8  # 8^7 > 10^6 policies
    rng = np.random.default_rng(0)
    kernel = np.stack([rng.dirichlet(np.ones(s), size=s) for _ in range(m)])
    model = MdpModel(states=tuple(map(str, range(s))),
                     actions=tuple(map(str, range(m))),
                     kernel=kernel, cost=np.zeros((s, m)))
    with pytest.raises(GuardError):
        brute_force_lambda_star(model)


# -- certified brackets ---------------------------------------------------------

def _assert_certified(bf, expected):
    lo, hi = bf.bracket
    assert bf.converged
    assert hi - lo <= oracle.RATE_TOL
    assert lo <= bf.value <= hi
    assert bf.value == bf.per_state.max()
    # eigvals rounds in the last bits of log rho
    slack = 1e-13 * max(1.0, abs(expected))
    assert lo - slack <= expected <= hi + slack


@pytest.mark.parametrize("name", sorted(
    name for name, model in BIT_FOR_BIT.items() if model.num_actions**model.num_states <= 1024))
def test_brute_force_bracket_holds_the_eigenvalue_minimum(name):
    model = BIT_FOR_BIT[name]
    _assert_certified(brute_force_lambda_star(model), pure_log_rho_min(model))


def test_nearly_periodic_policies_converge(monkeypatch):
    # 2-successor rows and costs U[0, 10]: the windowed power iteration this
    # bracket replaced ran 100,000 steps on 3 of these 16 policies without
    # converging, and reported 5.2775409189 with converged false
    model = two_successor_model(1, 4, 2)
    monkeypatch.setattr(oracle, "MAX_POWER_ITERS", 1000)
    bf = brute_force_lambda_star(model)
    _assert_certified(bf, pure_log_rho_min(model))


def test_pruning_bounds_the_work(monkeypatch):
    # 1,024 policies take about 500 steps each to close; dropping policies
    # against the best upper bound leaves 21,829 chain-steps here
    steps = []
    brackets = oracle._brackets

    def counted(*args):
        out = brackets(*args)
        steps.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(oracle, "_brackets", counted)
    brute_force_lambda_star(BIT_FOR_BIT["lazy-s10m2"])
    assert sum(steps) <= 30_000


def test_reducible_policy_rates_per_class():
    # the trap's absorbing state 0 costs 0.9 or 0.95 per step: a policy whose
    # ring 1..4 grows slower has per-state rates that differ by class
    model = BIT_FOR_BIT["trap"]
    for choice in itertools.product(range(2), repeat=5):
        rates = growth_rate(model, pure_policy(choice, 2))
        states = np.arange(5)
        m = np.exp(model.cost[states, choice])[:, None] * model.kernel[list(choice), states]
        absorbing = model.cost[0, choice[0]]
        ring = class_log_rho(m[1:, 1:])
        assert rates.converged
        assert abs(rates.lam[0] - absorbing) <= 1e-12
        np.testing.assert_allclose(rates.lam[1:], max(ring, absorbing), atol=1e-10)


def test_restart_closes_the_lazy_ring_in_one_step(monkeypatch):
    # every policy still open after RESTART_STEP damped steps closes on the
    # first step from its Perron estimate; without the restart this brute
    # force runs 343 steps
    calls = []
    matvec = oracle._support_matvec

    def counted(*args):
        calls.append(1)
        return matvec(*args)

    monkeypatch.setattr(oracle, "_support_matvec", counted)
    bf = brute_force_lambda_star(BIT_FOR_BIT["lazy-s10m2"])
    assert len(calls) == oracle.RESTART_STEP + 1
    assert bf.converged


def test_restart_keeps_per_class_rates():
    # the trap with a cheap absorbing state: the ring 1..4 grows faster than
    # state 0 under some policies and slower under others, so each class is
    # shifted and rescaled by its own maximum and closes one step after the
    # restart at its own rate
    trap = BIT_FOR_BIT["trap"]
    cost = trap.cost.copy()
    cost[0] = [0.01, 0.02]
    model = _named(trap.kernel, cost)
    states = np.arange(5)
    faster = set()
    for choice in itertools.product(range(2), repeat=5):
        rates = growth_rate(model, pure_policy(choice, 2))
        m = np.exp(model.cost[states, choice])[:, None] * model.kernel[list(choice), states]
        absorbing = model.cost[0, choice[0]]
        ring = class_log_rho(m[1:, 1:])
        faster.add(ring > absorbing)
        assert rates.converged and rates.iterations == oracle.RESTART_STEP + 1
        assert rates.lam[0] == absorbing
        np.testing.assert_allclose(rates.lam[1:], max(ring, absorbing), rtol=0, atol=1e-14)
    assert faster == {True, False}


def test_restart_closes_a_period_two_chain():
    # a bipartite chain: B has the eigenvalue -rho(B), which adding I lifts
    # off the Perron root, and the damped iteration is still open at the
    # restart
    kernel = np.array([[0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.9, 0.1],
                       [0.6, 0.4, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]])
    cost = np.array([0.0, 5.0, 2.0, 9.0])
    rates = growth_rate(uncontrolled(kernel, cost), StationaryPolicy(np.ones((4, 1))))
    assert rates.converged and rates.iterations == oracle.RESTART_STEP + 1
    expected = class_log_rho(np.exp(cost)[:, None] * kernel)
    assert abs(rates.lambda_max - expected) <= 1e-14 * abs(expected)


def test_restart_falls_back_where_the_perron_vector_underflows(monkeypatch):
    # state 1's Perron entry is about e^-720 of state 0's: the squarings lose
    # it to underflow, so the restart estimates the correction to the damped
    # iterate instead, from D^-1 B D with D = diag(h); the damped iteration
    # alone takes 1,073 steps
    model = uncontrolled([[0.5, 0.5], [0.5, 0.5]], [720.0, 0.0])
    restarted = growth_rate(model, ONLY)
    assert restarted.converged and restarted.iterations <= 100
    reference = 720.0 + math.log(0.5)   # log(e^720 / 2 + 1 / 2) in double precision
    lo, hi = brute_force_lambda_star(model).bracket
    assert lo <= reference <= hi
    monkeypatch.setattr(oracle, "RESTART_STEP", 0)
    plain = growth_rate(model, ONLY)
    assert plain.iterations == 1073
    assert abs(plain.lambda_max - restarted.lambda_max) <= oracle.RATE_TOL


def test_restart_relative_to_the_iterate_closes_a_ring_spanning_thousands():
    # one state of a lazy ring costs 800, so the Perron vector falls by about
    # e^-800 per state around the ring, 7,200 in log space: every row of B
    # but that state's underflows, which leaves a finite but meaningless
    # estimate, and the correction to the iterate spans past the float range
    # too, so the relative restart repeats, each time moving the entries it
    # loses by the most it can hold; restarting from the meaningless
    # estimate took 9,932 steps, and the damped iteration alone takes 10,408
    ring = _lazy_ring(3, 10, 1)
    cost = ring.cost[:, 0].copy()
    cost[0] = 800.0
    model = uncontrolled(ring.kernel[0], cost)
    rates = growth_rate(model, StationaryPolicy(np.ones((10, 1))))
    assert rates.converged and rates.iterations <= 100
    # the other rows vanish next to e^800, so rho is e^800 p(0|0) up to e^-800
    with np.errstate(under="ignore"):
        reference = 800.0 + class_log_rho(np.exp(cost - 800.0)[:, None] * ring.kernel[0])
    lo, hi = brute_force_lambda_star(model).bracket
    assert lo <= reference <= hi


# prints the value and bracket of brute force on three models as hex floats
BLAS_THREADS_CHILD = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from test_oracle import BIT_FOR_BIT
from riskmdp.oracle import brute_force_lambda_star
out = {}
for name in ("lazy-s10m2", "ring-s10m3", "trap"):
    bf = brute_force_lambda_star(BIT_FOR_BIT[name])
    out[name] = [bf.value.hex(), bf.bracket[0].hex(), bf.bracket[1].hex()]
print(json.dumps(out))
"""


def test_brute_force_is_the_same_with_one_and_two_blas_threads():
    # the restart squares dense matrices with BLAS; its products must not
    # depend on how many threads BLAS runs
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD,
                               str(Path(__file__).parent)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["periodic", "absorbing", "disconnected", "differing"]),
       st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
def test_bracket_holds_the_eigenvalue_minimum_property(kind, seed, s, m):
    model = structured_model(kind, seed, s, m)
    _assert_certified(brute_force_lambda_star(model), pure_log_rho_min(model))


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
    pure = pure_policy([0, 1, 0], 2)
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


PERRON_POLICY_CASES = corpus() + [
    ("ring-32", random_model(3, 32, 3)),
    ("costly", uncontrolled([[0.6, 0.4], [0.3, 0.7]], [990.0, 1000.0])),
]


@pytest.mark.parametrize("model", [model for _, model in PERRON_POLICY_CASES],
                         ids=[name for name, _ in PERRON_POLICY_CASES])
def test_perron_policy_is_pure_optimal_with_its_perron_vector(model):
    # policy iteration ends at the best pure policy's rate (brute force where
    # it runs), and log h is that policy's Perron vector: c(i) + log sum_j
    # p(j|i) h_j = rate + log h_i at every state
    choice, log_h = perron_policy(model)
    assert log_h is not None
    rate = growth_rate(model, pure_policy(choice, model.num_actions)).lambda_max
    if model.num_actions ** model.num_states <= oracle.ENUMERATION_GUARD:
        assert abs(rate - brute_force_lambda_star(model).value) <= 1e-9
    states = np.arange(model.num_states)
    p = model.kernel[choice, states]
    lhs = model.cost[states, choice] + np.log(p @ np.exp(log_h - log_h.max())) + log_h.max()
    np.testing.assert_allclose(lhs - log_h, rate, rtol=0.0, atol=1e-9)


def test_perron_policy_gives_no_vector_on_a_reducible_chain():
    # state 0 absorbs under every action: no pure policy's chain is
    # irreducible, and the policy still comes back
    model = MdpModel(states=("a", "b"), actions=("x", "y"),
                     kernel=np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.2, 0.8]]]),
                     cost=np.array([[0.1, 0.3], [0.9, 0.2]]))
    choice, log_h = perron_policy(model)
    assert log_h is None and choice.shape == (2,)
