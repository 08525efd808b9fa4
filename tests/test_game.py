import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskmdp
from riskmdp import game
from riskmdp.certify import build_certificate, two_state_model
from riskmdp.lp import OPT_TOL, LpError, solve as lp_solve
from riskmdp.model import MdpModel
from riskmdp.game import (
    gibbs_rows,
    solve_congen,
    solve_sequence,
    tilde_cost_table,
)
from riskmdp.oracle import brute_force_lambda_star, growth_rate, perron_policy

from helpers import (
    TWO_SUCCESSOR_SHAPES,
    as_stationary,
    assert_same_solution,
    binds,
    build_dual,
    build_grid,
    build_primal,
    closed_form_applies,
    common_support,
    common_support_model,
    corpus,
    counted_inverses,
    crash_lp_start,
    dense,
    dirac_start,
    full_grid_solution,
    game_payoff,
    gibbs_row,
    lattice_cut,
    neg_inf_states,
    primal_from_rows,
    priced_violation,
    pure_policy,
    random_model,
    row_violations,
    sampled_violations,
    solve_extracting_every_round,
    solve_game,
    solve_general,
    sticky_ring,
    trap_ring,
    two_successor_model,
    wide_model,
    worst_residual,
)

# actions at a state reach different successors, so reward tables carry
# -inf entries and the LP fixes the mu columns of rows that leave I_i
DIFFERING_SUPPORTS = MdpModel(
    states=("a", "b", "c"), actions=("x", "y"),
    kernel=np.array([[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                     [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]]),
    cost=np.array([[0.2, 0.9], [0.5, 0.1], [0.4, 0.6]]),
)


def _congen_rows(model):
    """A constraint-generation working set: the Dirac rows plus one Gibbs
    row per state, none of them on a dyadic grid."""
    rng = np.random.default_rng(7)
    vvec = rng.uniform(-1.0, 1.0, model.num_states)
    y = rng.dirichlet(np.ones(model.num_actions), model.num_states)
    rows, owner = build_grid(model, 0).stacked()
    gibbs = gibbs_rows(model, y, vvec)
    owner = np.concatenate([owner, np.arange(model.num_states)])
    order = np.argsort(owner, kind="stable")
    return np.vstack([rows, gibbs])[order], owner[order]


CONGEN_MODEL = random_model(42, 4, 3)
TRANSPOSE_CASES = (
    [(name, model, build_grid(model, 2).stacked()) for name, model in corpus()]
    + [("differing-supports", DIFFERING_SUPPORTS, build_grid(DIFFERING_SUPPORTS, 2).stacked()),
       ("congen-working-set", CONGEN_MODEL, _congen_rows(CONGEN_MODEL))]
)


def test_primal_structure_two_state_chain():
    model = two_state_model(0.8)
    prog = build_primal(model, build_grid(model, 2))
    # grids of size 1 and 5: one beta-row and one V-row each, plus 2 simplex rows
    assert prog.relations.count(">=") == 12
    assert prog.relations.count("==") == 2
    assert prog.num_vars == 2 + 2 + 2  # V, beta, y


def test_primal_single_state_optimum_is_cost():
    model = MdpModel(states=("s",), actions=("a",),
                     kernel=np.ones((1, 1, 1)), cost=np.array([[0.7]]))
    sol = solve_general(build_primal(model, build_grid(model, 2)))
    assert sol.status == "optimal"
    assert math.isclose(sol.objective_value, 0.7, abs_tol=1e-9)


def test_primal_resolution_zero_has_dirac_rows_only():
    model = random_model(41, 3, 2)
    grid = build_grid(model, 0)
    prog = build_primal(model, grid)
    n_rows = sum(len(s) for s in grid.supports)
    assert prog.relations.count(">=") == 2 * n_rows


def _assert_dual_is_transpose_of_primal(model, rows, owner):
    s = model.num_states
    n_ineq = rows.shape[0]
    prog_p = primal_from_rows(model, rows, owner)
    prog_d = game._dual(model, rows, owner)
    # primal rows: [beta-rows, V-rows of the binding rows, simplex]; cols: [V, beta, y]
    # dual rows: [kernel-balance, mass, reward]; cols: [mu, nu, w]
    binding = np.array([binds(model, i, q) for i, q in zip(owner, rows)], dtype=bool)
    n_v = int(binding.sum())
    order = np.concatenate([np.arange(n_ineq, n_ineq + n_v), np.arange(n_ineq),
                            np.arange(n_ineq + n_v, n_ineq + n_v + s)])
    cols = np.concatenate([np.flatnonzero(binding), np.arange(n_ineq, 2 * n_ineq + s)])
    expected = prog_p.matrix.T[:, order]
    expected[2 * s:] *= -1.0
    np.testing.assert_array_equal(dense(prog_d)[:, cols], expected)
    # the mu column of a row without a V-row is fixed at 0, and only it
    np.testing.assert_array_equal(prog_d.fixed[:n_ineq], ~binding)
    assert not prog_d.objective[:n_ineq].any()
    # objective and right-hand sides swap
    np.testing.assert_array_equal(prog_d.rhs, prog_p.objective)
    np.testing.assert_array_equal(prog_d.objective[cols], prog_p.rhs[order])


def test_dual_is_exact_machine_transpose_of_primal():
    model = random_model(42, 3, 2)
    _assert_dual_is_transpose_of_primal(model, *build_grid(model, 2).stacked())


@pytest.mark.parametrize("model,rows", [c[1:] for c in TRANSPOSE_CASES],
                         ids=[c[0] for c in TRANSPOSE_CASES])
def test_dual_transpose_of_primal_across_row_sets(model, rows):
    _assert_dual_is_transpose_of_primal(model, *rows)


def test_differing_supports_dual_fixes_the_mu_columns_off_the_common_support():
    # at a the actions reach b and c, so I_a is empty; at b, x reaches a only
    grid = build_grid(DIFFERING_SUPPORTS, 2)
    rows, owner = grid.stacked()
    lp = build_dual(DIFFERING_SUPPORTS, grid)
    fixed = lp.fixed[:len(rows)]
    np.testing.assert_array_equal(fixed, (owner == 0) | ((owner == 1) & (rows[:, 1] > 0.0)))
    # every coefficient is finite and of the model's scale; the fixed
    # columns carry no reward
    assert np.abs(dense(lp)).max() <= 10.0
    assert not dense(lp)[6:, :len(rows)][:, fixed].any()


@pytest.mark.parametrize("model", [corpus()[0][1], corpus()[-1][1], DIFFERING_SUPPORTS],
                         ids=[corpus()[0][0], corpus()[-1][0], "differing-supports"])
def test_verify_pair_rejects_each_broken_residual_kind(model):
    # at the LP optimum, one row's right-hand side (one column's objective)
    # is set 3 tolerances, scaled by its largest coefficient (at least 1),
    # off the point's activity there, in the direction only its own test
    # catches: above it on a >= row or a nonnegative column, below it on an
    # == row or a free column
    rows, owner = build_grid(model, 2).stacked()
    rnd = game._solve_pair(model, rows, owner, resolution=2)
    prog, beta, vvec, y, x = game._dual(model, rows, owner), rnd.beta, rnd.vvec, rnd.y, rnd.x
    s = model.num_states
    n_mu = (prog.num_vars - s) // 2
    matrix = dense(prog)
    step = 3.0 * game.GAME_FEAS_TOL
    rows_off = (matrix @ x, np.maximum(1.0, np.abs(matrix).max(axis=1)))
    cols_off = (matrix.T @ np.concatenate([vvec, beta, -y.ravel()]),
                np.maximum(1.0, np.abs(matrix).max(axis=0)))
    game._verify_pair(prog, beta, vvec, y, x)

    def broken(field, k, sign):
        activity, scale = rows_off if field == "rhs" else cols_off
        value = getattr(prog, field).copy()
        value[k] = activity[k] + sign * step * scale[k]
        return replace(prog, **{field: value})

    binding = np.flatnonzero(~prog.fixed[:n_mu])
    cases = {
        "kernel balance": ("rhs", s - 1, -1.0, "dual"),
        "mass": ("rhs", s, -1.0, "dual"),
        "reward": ("rhs", 2 * s + 1, 1.0, "dual"),
        "beta": ("objective", n_mu + binding[-1], 1.0, "primal"),
        "V of a binding row": ("objective", binding[-1], 1.0, "primal"),
        "sum(y) = 1": ("objective", 2 * n_mu + s - 1, -1.0, "primal"),
    }
    for field, k, sign, side in cases.values():
        with pytest.raises(LpError, match=rf"{side} residual 3\.000e-08"):
            game._verify_pair(broken(field, k, sign), beta, vvec, y, x)
    # a fixed mu column has no V-row: its violation is no breach
    for k in np.flatnonzero(prog.fixed):
        game._verify_pair(broken("objective", k, 1.0), beta, vvec, y, x)
    # the dual stays feasible with a smaller w, but the objectives part
    x = x.copy()
    x[-1] -= 3.0 * game.GAME_GAP_TOL
    with pytest.raises(LpError, match="strong duality violated"):
        game._verify_pair(prog, beta, vvec, y, x)


@pytest.mark.parametrize("entry,value", [(3, math.nan), (0, math.nan), (1, math.nan),
                                         (2, math.nan), (3, math.inf)],
                         ids=["nan-x", "nan-beta", "nan-V", "nan-y", "inf-x"])
def test_verify_pair_rejects_a_non_finite_point(entry, value):
    # random_model(3, 8, 3)'s crash point verifies; one NaN entry, or an inf
    # in x, must not (a NaN compares false against every tolerance)
    model = random_model(3, 8, 3)
    rows, owner, _, point = game._crash_start(model)
    prog = game._dual(model, rows, owner)
    game._verify_pair(prog, *point)
    point = [a.copy() for a in point]
    point[entry].flat[0] = value
    with pytest.raises(LpError):
        game._verify_pair(prog, *point)


def test_primal_and_dual_objectives_agree():
    model = two_state_model(0.8)
    grid = build_grid(model, 3)
    p = solve_general(build_primal(model, grid))
    d = lp_solve(build_dual(model, grid))
    assert math.isclose(p.objective_value, d.objective_value, abs_tol=1e-7)


def test_dual_objective_hits_closed_form_value():
    model = two_state_model(0.8)
    sol = lp_solve(build_dual(model, build_grid(model, 6)))
    assert abs(sol.objective_value - (0.0 + 1.0 + math.log(0.8))) <= 2e-2


def test_dual_single_state_mass_is_one():
    # one state, one Dirac row: the mass-balance equality pins mu at exactly 1
    model = MdpModel(states=("s",), actions=("a",),
                     kernel=np.ones((1, 1, 1)), cost=np.array([[0.3]]))
    sol = lp_solve(build_dual(model, build_grid(model, 3)))
    assert math.isclose(sol.x[0], 1.0, abs_tol=1e-9)
    assert math.isclose(sol.objective_value, 0.3, abs_tol=1e-9)


@pytest.mark.parametrize("rho,expected_q22", [(0.8, 1.0), (0.5, 1.0)])
def test_solve_game_supercritical(rho, expected_q22):
    model = two_state_model(rho)
    sol = solve_game(model, 6)
    assert abs(sol.value[0]) <= 2e-2
    assert abs(sol.value[1] - (1.0 + math.log(rho))) <= 2e-2
    assert sol.maximizer.entries[1, 1] >= expected_q22 - 1e-6
    assert sol.duality_gap <= 1e-6


def test_solve_game_subcritical_interior_row():
    model = two_state_model(math.exp(-2))
    sol = solve_game(model, 8)
    np.testing.assert_allclose(sol.value, 0.0, atol=2e-2)
    assert 0.05 < sol.maximizer.entries[1, 1] < 0.95


def test_solve_game_zero_cost_dyadic_model():
    # dyadic kernels put the zero-divergence response on the grid
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.25, 0.75], [0.5, 0.5]]]),
                     cost=np.zeros((2, 1)))
    sol = solve_game(model, 4)
    np.testing.assert_allclose(sol.value, 0.0, atol=1e-9)


def test_dual_identity_and_strong_duality():
    for seed, s, m in [(51, 3, 2), (52, 4, 3)]:
        model = random_model(seed, s, m)
        sol = solve_game(model, 6)
        assert abs(sol.value.sum() - sol.dual_w.sum()) <= 1e-6
        fixed = sol.maximizer.entries @ sol.value
        assert np.abs(sol.value - fixed).max() <= 1e-6


def test_minimizer_rows_not_worse_than_value():
    # the purified policy's true growth rate cannot beat the game value
    model = random_model(53, 3, 2)
    sol = solve_game(model, 8)
    rates = growth_rate(model, as_stationary(sol.minimizer_pure, 2))
    assert rates.lambda_max >= sol.lambda_bar - 1e-6


def test_value_is_nondecreasing_in_resolution():
    # richer grids can only help the maximizer; this model shows a strict
    # increase, which is why the sweep asserts the nondecreasing direction
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
                     cost=np.array([[0.0], [1.0]]))
    v0 = solve_game(model, 0).lambda_bar
    v1 = solve_game(model, 1).lambda_bar
    v3 = solve_game(model, 3).lambda_bar
    assert v1 > v0 + 1e-7
    assert v3 >= v1 - 1e-12


def test_mixed_minimizer_can_undercut_pure_value():
    # with strongly action-dependent kernels the game lets the minimizer mix,
    # inflating the divergence penalty: the game value drops strictly below
    # the best pure policy's growth rate, so value identification against the
    # brute-force oracle only holds on near-shared-kernel models
    model = random_model(106, 4, 3, kernel_jitter=0.28)
    sol = solve_game(model, 6)
    bf = brute_force_lambda_star(model)
    assert sol.lambda_bar < bf.value - 1e-3
    mixing = (sol.minimizer.rows > 1e-6).sum(axis=1)
    assert mixing.max() >= 2


def test_sequence_two_state_chain():
    model = two_state_model(0.8)
    rep = solve_sequence(model, 2, 8, 1e-4)
    target = 1.0 + math.log(0.8)
    assert abs(rep.lambda_bar - target) <= 2e-2
    for early, late in zip(rep.beta_trace, rep.beta_trace[1:]):
        assert float((early - late).max()) <= 1e-7  # nondecreasing
    # the reported violation is exact: a dense scan over the one free kernel
    # entry comes within 1e-9 of it from below
    for rho, r in ((0.8, rep), (0.2, solve_sequence(two_state_model(0.2), 2, 8, 1e-4))):
        scan = _scanned_violation(rho, r.final.value, r.final.potentials)
        assert 0.0 <= r.feasibility_violation - scan <= 1e-9


def _scanned_violation(rho, beta, vvec):
    """Worst constraint violation, clipped at 0, of the two-state chain by a
    dense scan over q22: state 1 absorbs, so its only row is the Dirac row,
    where the beta-violation is 0 and the V-violation -beta[0]."""
    q22 = np.linspace(0.0, 1.0, 1_000_001)
    kl = np.zeros_like(q22)
    for q, p in ((q22, rho), (1.0 - q22, 1.0 - rho)):
        kl += np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0) / p), 0.0)
    v_viol = 1.0 - kl + (1.0 - q22) * vvec[0] + q22 * vvec[1] - vvec[1] - beta[1]
    b_viol = (1.0 - q22) * beta[0] + q22 * beta[1] - beta[1]
    return max(0.0, -float(beta[0]), float(v_viol.max()), float(b_viol.max()))


def test_sequence_single_state_stops_immediately():
    model = MdpModel(states=("s",), actions=("a",),
                     kernel=np.ones((1, 1, 1)), cost=np.array([[0.7]]))
    rep = solve_sequence(model, 2, 8, 1e-4)
    assert rep.stopping_reason == "stop_tol"
    assert rep.resolutions == (2, 3)
    assert math.isclose(rep.lambda_bar, 0.7, abs_tol=1e-9)


def test_sequence_matches_brute_force():
    model = random_model(54, 3, 2)
    rep = solve_sequence(model, 2, 8, 1e-4)
    bf = brute_force_lambda_star(model)
    assert abs(rep.lambda_bar - bf.value) <= 3e-2


def test_congen_agrees_with_grid_sweep():
    model = two_state_model(0.8)
    rep = solve_sequence(model, 2, 8, 1e-4)
    sol = solve_congen(model)
    assert sol.certified
    assert sol.rounds <= 20
    assert abs(sol.lambda_bar - rep.lambda_bar) <= 1e-4


def test_congen_zero_cost_deterministic_kernel_terminates_first_round():
    # singleton supports: the Dirac seed already spans the strategy class
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                     cost=np.zeros((2, 1)))
    sol = solve_congen(model)
    assert sol.rounds == 1
    assert sol.certified
    np.testing.assert_allclose(sol.value, 0.0, atol=1e-9)


def test_congen_round_budget_returns_uncertified_iterate(dirac_seed):
    # from the Dirac seed: the crash start closes this model in one round
    model = random_model(59, 4, 3)
    sol = solve_congen(model, max_rounds=1)
    assert not sol.certified
    assert sol.rounds == 1
    # the restricted value is still a valid lower bound on the full solve
    assert sol.lambda_bar <= solve_game(model, 8).lambda_bar + 1e-9


def test_congen_constraint_count_is_small():
    model = random_model(55, 4, 2)
    grid_sol = solve_game(model, 8)
    cg = solve_congen(model)
    assert cg.certified
    assert cg.num_constraints <= 0.1 * grid_sol.num_constraints
    assert abs(cg.lambda_bar - grid_sol.lambda_bar) <= 1e-3


def _recorded_lp_solves(monkeypatch):
    """Route game's LP solves through a recorder of (program, basis, solution)."""
    calls = []

    def record(program, **kwargs):
        calls.append((program, kwargs.get("basis"), lp_solve(program, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(game, "lp_solve", record)
    return calls


WARM_CASES = corpus() + [("ring-16", random_model(3, 16, 3)),
                         ("ring-12", random_model(8, 12, 2))]


@pytest.mark.parametrize("model", [model for _, model in WARM_CASES],
                         ids=[name for name, _ in WARM_CASES])
def test_warm_started_congen_rounds_match_cold_solves(monkeypatch, dirac_seed, model):
    # from the Dirac seed, whose first round is cold: each round after the
    # first starts from the previous round's basis; its optimum
    # sum(w) = sum(beta) is the one a cold start finds
    calls = _recorded_lp_solves(monkeypatch)
    sol = solve_congen(model)
    assert sol.certified
    assert len(calls) == sol.rounds and calls[0][1] is None
    for prog, basis, got in calls[1:]:
        assert got.warm_started
        cold = lp_solve(prog)
        assert got.status == cold.status == "optimal"
        assert abs(got.objective_value - cold.objective_value) <= 1e-9


def test_congen_warm_starts_keep_pivots_low(monkeypatch, dirac_seed):
    # pivots do not depend on the machine, only on the BLAS thread count:
    # from the Dirac seed, cold starts took 1,816 here, the warm starts 443
    # with one thread and 442 with two; a silent fallback to cold starts
    # would keep every value right and lose the gain
    model = random_model(3, 32, 3)
    calls = _recorded_lp_solves(monkeypatch)
    sol = solve_congen(model)
    assert sol.certified and sol.rounds >= 2
    assert len(calls) == sol.rounds
    assert not calls[0][2].warm_started
    assert all(got.warm_started for _, _, got in calls[1:])
    assert sum(got.iterations for _, _, got in calls) < 700


def test_congen_re_solves_cold_a_warm_vertex_whose_duals_miss_its_basis():
    # the 14th LP of this solve, warm after 17 pivots, ends at a basis whose
    # multipliers leave basic reduced costs of up to 2.4e-6; the dual
    # residual check sends it to a cold re-solve, and congen certifies the
    # value (the grid sweep gives 3.1302119)
    sol = solve_congen(two_successor_model(250, 5, 2))
    assert sol.certified and sol.rounds == 15
    assert abs(sol.lambda_bar - 3.1302274) <= 1e-7


def test_congen_rounds_invert_each_warm_start_basis(monkeypatch, dirac_seed):
    # from the Dirac seed, over its five rounds: every warm start inverts its
    # basis, and every round pivots, so each clean-up inverts too: 13
    # inversions
    inverses = counted_inverses(monkeypatch)
    sol = solve_congen(random_model(3, 32, 3))
    assert sol.certified and sol.rounds == 5
    assert len(inverses) <= 13


def test_value_drop_in_the_sweep_is_fatal(value_drop):
    # refining the grid can only raise beta, so a drop is an LP bug
    with pytest.raises(game.MonotonicityError, match="from resolution 2 to 3"):
        solve_sequence(two_state_model(0.8))


def test_congen_crash_solve_inverts_its_basis_and_the_clean_up(monkeypatch, crash_lp):
    # the crash LP, without the closed form: its basis is optimal and phase
    # 2 makes no pivot, so the solve inverts one 160 x 160 basis at the warm
    # start and the same basis again at the clean-up
    inverses = counted_inverses(monkeypatch)
    sol = solve_congen(random_model(3, 32, 3))
    assert sol.certified and sol.rounds == 1
    assert inverses == [(160, 160)] * 2


EXTRACT_CASES = [(name, model, method)
                 for name, model in corpus() + [("sticky-ring", sticky_ring()),
                                                ("trap", trap_ring())]
                 for method in ("grid", "congen")]


@pytest.mark.parametrize("model, method", [case[1:] for case in EXTRACT_CASES],
                         ids=[f"{name}-{method}" for name, _, method in EXTRACT_CASES])
def test_returned_solution_equals_the_last_rounds_extraction(monkeypatch, model, method):
    # extraction (maximizer rows, purification) runs once, on the returned
    # solution: it equals, bit for bit, what extracting every round gives
    # for the last round, and a solve makes one LP solve per round but a
    # congen first round that is the verified crash point
    solve = solve_sequence if method == "grid" else solve_congen
    result, extracted = solve_extracting_every_round(solve, model)
    got = result.final if method == "grid" else result
    rounds = sum(result.rounds) if method == "grid" else result.rounds
    assert len(extracted) == rounds
    assert_same_solution(got, replace(extracted[-1], resolution=got.resolution,
                                      num_constraints=got.num_constraints,
                                      certified=got.certified, rounds=got.rounds))
    calls = _recorded_lp_solves(monkeypatch)
    assert_same_solution(solve(model).final if method == "grid" else solve(model), got)
    assert len(calls) == rounds - (method == "congen" and closed_form_applies(model))


# the worst case keeps the chain at state 0, and states 1-3 carry no long-run
# mass in the grid's returned solution (the sticky ring's to n = 4, the
# trap's to n = 8) and in congen's first round from the Dirac seed
MASS_FREE_CASES = {
    "sticky-ring-grid": (sticky_ring(), lambda model: solve_sequence(model, 2, 4)),
    "sticky-ring-congen": (sticky_ring(), lambda model: solve_congen(model, max_rounds=1)),
    "trap-grid": (trap_ring(), solve_sequence),
    "trap-congen": (trap_ring(), lambda model: solve_congen(model, max_rounds=1)),
}


@pytest.mark.parametrize("case", MASS_FREE_CASES)
def test_states_without_long_run_mass_take_their_priced_rows(monkeypatch, dirac_seed, case):
    # their occupation weights are a degenerate face of the dual optimum, so
    # q* there is the row pricing gives at the returned (beta, V, y): the
    # last resolution's lattice cut, or the Gibbs row
    model, solve = MASS_FREE_CASES[case]
    masses, extract = [], game._extract

    def record(model, rows, owner, rnd, *args):
        masses.append(np.bincount(owner, rnd.x[:len(owner)], minlength=model.num_states))
        return extract(model, rows, owner, rnd, *args)

    monkeypatch.setattr(game, "_extract", record)
    result = solve(model)
    sol = getattr(result, "final", result)
    y, vvec = sol.minimizer.rows, sol.potentials
    if sol is result:
        priced = gibbs_rows(model, y, vvec)
    else:
        priced, _ = game._price(model, sol.value, vvec, y, result.resolutions[-1])
    free = np.flatnonzero(masses[-1] <= game.MU_MASS_TOL)
    assert len(masses) == 1 and free.tolist() == [1, 2, 3]
    assert sol.maximizer.entries[free].tobytes() == priced[free].tobytes()


def test_num_constraints_count_v_rows_only_on_common_supports():
    # a beta-row per kernel row, a V-row per row on I_i: at n = 3 the
    # lattice has 9 + 9 + 1 rows on the union supports and 0 + 1 + 1 on I_i
    # (I_a is empty); congen's master holds the 5 Dirac rows, 2 of them on I_i
    assert solve_sequence(DIFFERING_SUPPORTS, 3, 3).final.num_constraints == 21
    assert full_grid_solution(DIFFERING_SUPPORTS, 3).num_constraints == 21
    assert solve_congen(DIFFERING_SUPPORTS).num_constraints == 7


def test_two_state_chain_mass_free_row_at_rho_e_minus_2():
    # the second state carries no long-run mass: the grid sweep to n = 8
    # stops at n = 3 with the lattice row 3/8, and congen's Gibbs row is the
    # analytic e^-1 up to the LP's potentials
    model = two_state_model(math.exp(-2))
    assert solve_sequence(model, 2, 8).final.maximizer.entries[1, 1] == 0.375
    assert abs(solve_congen(model).maximizer.entries[1, 1] - math.exp(-1)) <= 1e-8


@pytest.mark.parametrize("seed, s, m", [(22, 3, 2), (157, 4, 2)])
def test_maximizer_rows_come_only_from_tight_rows(seed, s, m):
    # a mu weight of at most MU_MASS_TOL of its state's mass is rounding
    # noise on a row that is not tight (2.6e-30 against 3 at the first
    # model's state 2), and q* drops it.  Read in, it gave q*[2, 0] = 3.4e-33
    # there, a chain whose Cesaro limit is degenerate, and in the second
    # model q*[2, 1] = 8.3e-17, against which a pure deviation paid 3.09
    # below the value
    model = two_successor_model(seed, s, m)
    sol = solve_sequence(model).final
    for choice in itertools.product(range(m), repeat=s):
        payoff = game_payoff(model, sol.maximizer, pure_policy(choice, m))
        assert payoff.phi_max >= sol.lambda_bar - 1e-6, choice


def test_two_successor_values_are_fixed_by_the_maximizer():
    # beta = q* beta, priced rows included, on the two-successor models of
    # PRICING_MODELS whose game value is finite (5 of the 10)
    checked = 0
    for seed in range(10):
        model = two_successor_model(seed, 4, 3)
        if neg_inf_states(model).any():
            continue
        for sol in (solve_sequence(model).final, solve_congen(model)):
            assert np.abs(sol.maximizer.entries @ sol.value - sol.value).max() <= 1e-12
        checked += 1
    assert checked == 5


# prints the pivots and warm starts of each LP solve of congen on
# random_model(3, 32, 3), from the Dirac seed or the crash LP when asked
PIVOT_PATH_CHILD = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from helpers import crash_lp_start, dirac_start, random_model
from riskmdp import game
game._crash_start = {"dirac": dirac_start, "crash-lp": crash_lp_start}[sys.argv[2]]
solve, pivots = game.lp_solve, []
def record(program, **kwargs):
    sol = solve(program, **kwargs)
    pivots.append([sol.iterations, sol.warm_started])
    return sol
game.lp_solve = record
game.solve_congen(random_model(3, 32, 3))
print(json.dumps(pivots))
"""


def _congen_pivot_path(seed: str) -> list:
    """[pivots, warm_started] per LP solve, measured with one BLAS thread: the
    path depends on the thread count, so the solve runs in a child."""
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PIVOT_PATH_CHILD, str(Path(__file__).parent),
                           seed], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_congen_pivot_path_is_pinned():
    # LP solves and pivots per solve from the Dirac seed, whose first round
    # is cold: the pivot bookkeeping may get cheaper, but a pivot that
    # changes its choice shows here (two threads took 253, 96, 41, 34, 18)
    assert [pivots for pivots, _ in _congen_pivot_path("dirac")] == [253, 92, 44, 36, 18]


def test_congen_crash_pivot_path_is_pinned():
    # without the closed form, the crash basis is the optimal vertex of the
    # first LP: one LP solve, warm, with no pivot
    assert _congen_pivot_path("crash-lp") == [[0, True]]


NEG_INF_OUTCOME = "came back infeasible: the game value is -inf"


def test_graph_test_flags_the_reference_states():
    # the library's -inf graph test, on the oracle's closure, against the
    # reference's boolean squaring
    models = [DIFFERING_SUPPORTS, *(two_successor_model(seed, s, m)
                                    for s, m in TWO_SUCCESSOR_SHAPES for seed in range(50))]
    for model in models:
        np.testing.assert_array_equal(game._neg_inf_states(model), neg_inf_states(model))


def test_dirac_lps_of_two_successor_models_solve():
    # the resolution-0 game LP (the Dirac rows), seeds 0-49: it solves, or
    # its dual is infeasible exactly where the graph test flags a state
    for s, m in TWO_SUCCESSOR_SHAPES:
        for seed in range(50):
            model = two_successor_model(seed, s, m)
            rows, owner = game.build_grid(model).stacked()
            if neg_inf_states(model).any():
                with pytest.raises(LpError, match=NEG_INF_OUTCOME):
                    game._solve_pair(model, rows, owner, resolution=0)
            else:
                rnd = game._solve_pair(model, rows, owner, resolution=0)
                priced, _ = game._price(model, rnd.beta, rnd.vvec, rnd.y, 0)
                game._extract(model, rows, owner, rnd, priced)


@pytest.mark.parametrize("shape", TWO_SUCCESSOR_SHAPES, ids=lambda shape: "s%dm%d" % shape)
def test_two_successor_models_solve_or_give_the_neg_inf_outcome(shape):
    # seeds 0-49 under both methods: a solve, or the -inf outcome exactly
    # where the graph test flags a state
    for seed in range(50):
        model = two_successor_model(seed, *shape)
        flagged = neg_inf_states(model).any()
        for solve in (lambda: solve_sequence(model, 2, 4), lambda: solve_congen(model)):
            if flagged:
                with pytest.raises(LpError, match=NEG_INF_OUTCOME):
                    solve()
            else:
                assert np.isfinite(solve().lambda_bar)


def _all_common_supports_nonempty(count):
    """The first count two-successor models, seeds upward in each shape in
    turn, whose every state has a nonempty I_i."""
    found = []
    for seed in range(1000):
        for shape in TWO_SUCCESSOR_SHAPES:
            model = two_successor_model(seed, *shape)
            if common_support(model).any(axis=1).all():
                found.append(model)
                if len(found) == count:
                    return found
    raise AssertionError(f"fewer than {count} such models")


def test_limit_lp_equals_its_reference_model():
    # the limit LP prices only rows on I_i; the reference model keeps only
    # I_i, with each p_u renormalized on it and log p_u(I_i | i) added to the
    # cost, so its supports are shared and its LP has no row to fix
    for model in _all_common_supports_nonempty(40):
        ref = common_support_model(model)
        assert not neg_inf_states(model).any()
        got, want = (solve_sequence(mdl, 2, 4, stop_tol=0.0) for mdl in (model, ref))
        for beta, ref_beta in zip(got.beta_trace, want.beta_trace):
            assert abs(beta.max() - ref_beta.max()) <= 1e-9
        assert abs(solve_congen(model).lambda_bar - solve_congen(ref).lambda_bar) <= 1e-6


def test_congen_working_set_keeps_per_state_order(monkeypatch, dirac_seed):
    # from the Dirac seed, the stacked working set holds its rows in the order per-state lists
    # would: state by state, each state's old rows first, then its new Gibbs
    # cut.  The Dirac seed already holds every beta-family cut, so no round
    # adds a Dirac row.
    model = random_model(105, 4, 2)
    solve_pair, price = game._solve_pair, game._price
    seen, cuts_seen = [], []

    def record_pair(model, rows, owner, **kwargs):
        seen.append((rows.copy(), owner.copy()))
        return solve_pair(model, rows, owner, **kwargs)

    def record_cuts(model, beta, vvec, y, *args):
        jbest = np.where(model.support, beta, -math.inf).argmax(axis=1)
        cuts_seen.append((jbest, *price(model, beta, vvec, y, *args)))
        return cuts_seen[-1][1:]

    monkeypatch.setattr(game, "_solve_pair", record_pair)
    monkeypatch.setattr(game, "_price", record_cuts)
    sol = solve_congen(model)
    assert sol.certified and sol.rounds == len(seen) >= 3
    for _, owner in seen:
        assert np.all(np.diff(owner) >= 0)
    busiest = 0
    for (rows, owner), cuts in zip(seen, cuts_seen):
        for i, (jbest, _, _) in enumerate(zip(*cuts)):
            dirac = np.zeros(model.num_states)
            dirac[jbest] = 1.0
            assert any(np.array_equal(r, dirac) for r in rows[owner == i])
    for (rows, owner), cuts, (nxt, nxt_owner) in zip(seen, cuts_seen, seen[1:]):
        grown = 0
        for i, (_, row, viol) in enumerate(zip(*cuts)):
            listed = list(rows[owner == i])
            if viol > 1e-6 and not any(np.abs(r - row).max() <= 1e-12 for r in listed):
                listed.append(row)
            np.testing.assert_array_equal(nxt[nxt_owner == i], np.array(listed))
            grown += len(listed) > int((owner == i).sum())
        busiest = max(busiest, grown)
    assert busiest >= 3


def test_master_adds_a_near_row_only_on_a_lattice(monkeypatch):
    # pricing returns, once, a violated row 1e-13 from a Dirac row its state
    # holds: distinct lattice rows can lie that close, so on a lattice it is
    # a new row, while among exact rows it is the held one
    model = random_model(105, 4, 2)
    rows, owner = game.build_grid(model).stacked()
    j, k = np.flatnonzero(model.support[0])[:2]
    near = np.zeros((model.num_states,) * 2)
    near[0, j], near[0, k] = 1.0 - 1e-13, 1e-13
    calls = []

    def price_once(model, beta, vvec, y, resolution=None):
        calls.append(resolution)
        viol = np.full(model.num_states, -math.inf)
        viol[0] = 1.0 if len(calls) == 1 else -math.inf
        return near, viol

    monkeypatch.setattr(game, "_price", price_once)
    for resolution, added in ((3, 1), (None, 0)):
        calls.clear()
        (got, got_owner, _), _, solves, done = game._restricted_master(
            model, (rows, owner, None), OPT_TOL, resolution)
        assert done and solves == 1 + added and calls == [resolution] * solves
        assert len(got) == len(rows) + added
        assert any(np.array_equal(r, near[0]) for r in got[got_owner == 0]) == bool(added)


def test_gibbs_row_pure_policy_reduction():
    model = random_model(56, 3, 2)
    vvec = np.array([0.3, -0.1, 0.6])
    y = np.array([[1.0, 0.0]] * 3)
    row = gibbs_rows(model, y, vvec)[1]
    p = model.kernel[0, 1]
    mask = p > 0
    expect = np.zeros(3)
    z = vvec[mask] + np.log(p[mask])
    expect[mask] = np.exp(z - z.max())
    expect /= expect.sum()
    np.testing.assert_allclose(row, expect, atol=1e-12)


def test_gibbs_rows_empty_intersection_gives_zero_row():
    # every row is worth -inf at x, so its V-constraint cannot be violated,
    # exactly or on a lattice
    model = MdpModel(states=("x", "y"), actions=("a", "b"),
                     kernel=np.array([[[1.0, 0.0], [1.0, 0.0]],
                                      [[0.0, 1.0], [1.0, 0.0]]]),
                     cost=np.zeros((2, 2)))
    y = np.full((2, 2), 0.5)
    for resolution in (None, 0, 3):
        np.testing.assert_array_equal(gibbs_rows(model, y, np.zeros(2), resolution),
                                      [[0.0, 0.0], [1.0, 0.0]])
        assert game._price(model, np.zeros(2), np.zeros(2), y, resolution)[1][0] == -math.inf


def test_tilde_cost_table_matches_scalar_oracle():
    from riskmdp.oracle import tilde_cost
    model = random_model(57, 3, 3)
    grid = build_grid(model, 2)
    for i in range(3):
        table = tilde_cost_table(model, i, grid.rows[i])
        for r, row in enumerate(grid.rows[i]):
            for u in range(3):
                assert table[r, u] == pytest.approx(tilde_cost(model, i, row, u))


@pytest.mark.parametrize("model", [random_model(57, 3, 3), DIFFERING_SUPPORTS],
                         ids=["corpus-like", "differing-supports"])
def test_tilde_cost_table_per_row_states_match_per_state_tables(model):
    # one state per row gives, bit for bit, the tables of one state at a time
    grid = build_grid(model, 2)
    rows, owner = grid.stacked()
    per_state = [tilde_cost_table(model, i, grid.rows[i]) for i in range(model.num_states)]
    np.testing.assert_array_equal(tilde_cost_table(model, owner, rows),
                                  np.concatenate(per_state))


def test_saddle_point_spot_check():
    model = random_model(58, 3, 2)
    sol = solve_game(model, 8)
    rng = np.random.default_rng(777)
    for _ in range(20):
        q = np.zeros((3, 3))
        for i in range(3):
            supp = np.flatnonzero(model.support[i])
            q[i, supp] = rng.dirichlet(np.ones(len(supp)))
        from riskmdp.model import KernelMatrix
        payoff = game_payoff(model, KernelMatrix.for_model(model, q),
                             as_stationary(sol.minimizer_pure, 2))
        assert payoff.phi_max <= sol.lambda_bar + 3e-2
    import itertools
    for choice in itertools.product(range(2), repeat=3):
        payoff = game_payoff(model, sol.maximizer,
                             pure_policy(choice, 2))
        assert payoff.phi_max >= sol.lambda_bar - 3e-2


def _assert_exact_separation(model, beta, vvec, y):
    """Each violation _separate reports is attained by the row it returns,
    and no sampled kernel of the full strategy class violates more."""
    sampled = sampled_violations(model, beta, vvec, y)
    for i, (jbest, bviol, row, vviol) in enumerate(zip(*game._separate(model, beta, vvec, y))):
        dirac = np.zeros(model.num_states)
        dirac[jbest] = 1.0
        assert row_violations(model, beta, vvec, y, i, dirac)[0] == bviol
        if not row.any():
            assert vviol == -math.inf
        else:
            assert abs(row_violations(model, beta, vvec, y, i, row)[1] - vviol) <= 1e-12
        assert (sampled[:, i, 0] <= bviol + 1e-12).all()
        assert (sampled[:, i, 1] <= vviol + 1e-12).all()


SEPARATION_MODELS = corpus() + [("jitter-106", random_model(106, 4, 3, kernel_jitter=0.28))]


@pytest.mark.parametrize("method", ["n2", "n4", "congen"])
@pytest.mark.parametrize("name,model", SEPARATION_MODELS,
                         ids=[n for n, _ in SEPARATION_MODELS])
def test_separation_is_exact_against_sampled_kernels(name, model, method):
    sol = solve_congen(model) if method == "congen" else solve_game(model, int(method[1:]))
    _assert_exact_separation(model, sol.value, sol.potentials, sol.minimizer.rows)


@pytest.mark.parametrize("y", [
    # action x at state a misses the sampled mass (-inf), y at b gives
    # weight 0 to x's -inf reward, c mixes two finite rewards
    [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]],
])
def test_separation_neg_inf_rewards_against_sampled_kernels(y):
    # any (beta, V, y) triple has an exact separation, not only LP solutions;
    # unequal betas make the beta-family's worst row state-dependent
    rng = np.random.default_rng(3)
    beta, vvec = rng.uniform(0.0, 1.0, (2, 3))
    _assert_exact_separation(DIFFERING_SUPPORTS, beta, vvec, np.array(y))


# at a, x reaches a and b, y reaches all three; b and c absorb
NARROW_ACTION = MdpModel(
    states=("a", "b", "c"), actions=("x", "y"),
    kernel=np.array([[[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                     [[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]),
    cost=np.array([[0.3, 0.2], [0.1, 0.1], [0.1, 0.1]]),
)


@pytest.mark.parametrize("resolution", [0, 1, 3])
@pytest.mark.parametrize("y", [
    [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    # weights the LP can leave as roundoff
    [[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12], [1e-12, 1.0 - 1e-12]],
    [[0.3, 0.7], [1e-9, 1.0 - 1e-9], [1.0, 0.0]],
])
def test_lattice_cut_prices_as_the_lp(y, resolution):
    # the priced violation is the largest the LP's own table gives any
    # binding row of the enumerated lattice, and the priced row attains it;
    # with no binding row (an empty I_i) it is -inf at a zero row
    y = np.array(y)
    rng = np.random.default_rng(resolution)
    beta, vvec = rng.uniform(0.0, 1.0, (2, 3))
    for model in (DIFFERING_SUPPORTS, NARROW_ACTION):
        grid = build_grid(model, resolution)
        cut_rows, viols = game._price(model, beta, vvec, y, resolution)
        for i, row, viol in zip(range(3), cut_rows, viols):
            ctab, binding = game._rewards(model, grid.rows[i], np.full(len(grid.rows[i]), i))
            rows = grid.rows[i][binding]
            if not binding.any():
                assert viol == -math.inf and not row.any()
                continue
            scores = ctab[binding] @ y[i] + rows @ vvec - vvec[i] - beta[i]
            assert abs(viol - scores.max()) <= 1e-12
            assert any(np.array_equal(row, r) for r in rows)


@pytest.mark.parametrize("weight", [1e-12, 1e-10])
def test_tiny_weight_on_a_narrower_action_keeps_its_violation(weight):
    # any positive weight on x makes every row leaving x's support worth
    # -inf, so the worst V-row lives on the {a, b} face; a row built on the
    # wider support scores -inf and hides the violation
    beta, vvec = np.full(3, 0.1), np.array([0.0, 0.9, 0.0])
    y = np.array([[weight, 1.0 - weight], [0.5, 0.5], [0.5, 0.5]])
    _, _, rows, viol = game._separate(NARROW_ACTION, beta, vvec, y)
    t = np.linspace(0.0, 1.0, 2_000_001)[1:-1]       # q = (t, 1 - t, 0)
    reward = sum(y[0, u] * (NARROW_ACTION.cost[0, u]
                            - t * np.log(t / p[0]) - (1.0 - t) * np.log((1.0 - t) / p[1]))
                 for u, p in enumerate(NARROW_ACTION.kernel[:, 0]))
    scan = float((reward + (1.0 - t) * vvec[1] - vvec[0] - beta[0]).max())
    assert abs(viol[0] - scan) <= 1e-9
    assert row_violations(NARROW_ACTION, beta, vvec, y, 0, rows[0])[1] == pytest.approx(
        viol[0], abs=1e-12)


def _random_triple(rng, model, scale=1.0):
    """(beta, V, y) with exact zeros and 1e-12 weights in y; V of the given
    scale."""
    s, m = model.num_states, model.num_actions
    beta = rng.uniform(-1.0, 1.0, s)
    vvec = rng.uniform(-scale, scale, s)
    y = rng.dirichlet(np.ones(m), s)
    y[rng.random((s, m)) < 0.3] = 0.0
    y[rng.random((s, m)) < 0.2] = 1e-12
    y[~y.any(axis=1), 0] = 1.0
    return beta, vvec, y / y.sum(axis=1, keepdims=True)


# the 10-state wide models put 4-successor Gibbs rows where numpy sums a
# full row pairwise
PRICING_MODELS = corpus() + [("differing-supports", DIFFERING_SUPPORTS)] + [
    (f"two-successor-{seed}", two_successor_model(seed, 4, 3)) for seed in range(10)] + [
    (f"wide-10-{seed}", wide_model(seed, 0, s=10)) for seed in range(3)]


@pytest.mark.parametrize("model", [model for _, model in PRICING_MODELS],
                         ids=[name for name, _ in PRICING_MODELS])
def test_stacked_pricers_match_per_state_references(model):
    # every state priced in one pass gives, bit for bit, the rows and
    # violations of pricing one state (one lattice candidate) at a time
    rng = np.random.default_rng(11)
    s = model.num_states
    for scale in (1.0, 1.0, 1.0, 1e6):
        beta, vvec, y = _random_triple(rng, model, scale)
        jbest, bviol, rows, viol = game._separate(model, beta, vvec, y)
        for i in range(s):
            supp = np.flatnonzero(model.support[i])
            assert jbest[i] == supp[np.argmax(beta[supp])]
            assert bviol[i] == beta[jbest[i]] - beta[i]
            row = gibbs_row(model, i, y[i], vvec)
            if row is None:
                assert not rows[i].any() and viol[i] == -math.inf
            else:
                assert rows[i].tobytes() == row.tobytes()
                assert viol[i] == priced_violation(model, i, row, y[i], vvec, beta[i])
        for n in (0, 1, 3):
            cut_rows, cut_viol = game._price(model, beta, vvec, y, n)
            for i in range(s):
                row, ref = lattice_cut(model, i, y[i], vvec, beta[i], n)
                assert cut_rows[i].tobytes() == row.tobytes() and cut_viol[i] == ref


def test_row_dot_equals_per_row_products():
    # 1,800 random stacks, s = 3..64, entries of two scales 1e6 apart
    rng = np.random.default_rng(5)
    for _ in range(1800):
        s, n = int(rng.integers(3, 65)), int(rng.integers(1, 40))
        a = rng.normal(size=(n, s)) * rng.choice([1.0, 1e6], size=(n, s))
        b, v = rng.normal(size=(n, s)), rng.normal(size=s)
        assert game._rowdot(a, b).tobytes() == np.array([a[k] @ b[k] for k in range(n)]).tobytes()
        assert game._rowdot(a, v).tobytes() == np.array([a[k] @ v for k in range(n)]).tobytes()


def _full_grid_residual(model, n, sol):
    """Worst violation of the full grid's primal constraints at sol's
    (V, beta, y), each relative to the size of its terms."""
    prog = primal_from_rows(model, *build_grid(model, n).stacked())
    x = np.concatenate([sol.potentials, sol.value, sol.minimizer.rows.ravel()])
    resid = (prog.matrix @ x - prog.rhs) / np.maximum(1.0, np.abs(prog.matrix) @ np.abs(x))
    ineq = np.array(prog.relations) == ">="
    return max(float(-resid[ineq].min()), float(np.abs(resid[~ineq]).max()))


def _assert_sweep_equals_full_grid(model, n_start, fulls):
    """The sweep's value trace is that of fulls, the full-grid LP solutions
    of resolutions n_start, n_start + 1, ..."""
    n_max = n_start + len(fulls) - 1
    rep = solve_sequence(model, n_start, n_max, stop_tol=0.0)
    assert rep.resolutions == tuple(range(n_start, n_max + 1))
    assert len(rep.rounds) == len(rep.resolutions) and rep.rounds[0] >= 1
    for n, beta, full in zip(rep.resolutions, rep.beta_trace, fulls):
        np.testing.assert_allclose(beta, full.value, rtol=1e-9, atol=1e-9, err_msg=f"n={n}")
    # pricing left no row of the last lattice violated
    assert _full_grid_residual(model, n_max, rep.final) <= OPT_TOL
    assert rep.final.num_constraints == fulls[-1].num_constraints


def _absorbing_model(seed, s, m):
    """State 0 absorbs; every other state moves to 0 or one step down or
    stays, with action-dependent splits; costs U[0, 1]."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    kernel[:, 0, 0] = 1.0
    for u in range(m):
        for i in range(1, s):
            np.add.at(kernel[u, i], [0, i - 1, i], rng.dirichlet(np.ones(3)))
    return MdpModel(tuple(f"s{i}" for i in range(s)), tuple(f"a{u}" for u in range(m)),
                    kernel, rng.uniform(0.0, 1.0, (s, m)))


def _periodic_model(seed, s, m):
    """Period 2 for even s: every state moves one step up or down the cycle."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((m, s, s))
    for u in range(m):
        for i in range(s):
            x = rng.uniform(0.1, 0.9)
            kernel[u, i, (i + 1) % s] += x
            kernel[u, i, (i - 1) % s] += 1.0 - x
    return MdpModel(tuple(f"s{i}" for i in range(s)), tuple(f"a{u}" for u in range(m)),
                    kernel, rng.uniform(0.0, 3.0, (s, m)))


SINGLE_STATE = MdpModel(states=("s",), actions=("a", "b"),
                        kernel=np.ones((2, 1, 1)), cost=np.array([[0.7, 0.4]]))
SWEEP_CASES = corpus() + [
    ("differing-supports", DIFFERING_SUPPORTS),
    ("two-successor-3", two_successor_model(3, 3, 2)),
    ("absorbing-4", _absorbing_model(5, 4, 2)),
    ("periodic-4", _periodic_model(6, 4, 2)),
    ("single-state", SINGLE_STATE),
]


@pytest.mark.parametrize("model", [model for _, model in SWEEP_CASES],
                         ids=[name for name, _ in SWEEP_CASES])
def test_restricted_sweep_equals_full_grid_lp(model):
    _assert_sweep_equals_full_grid(model, 0, [full_grid_solution(model, n) for n in range(5)])


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["ring", "two-successor", "absorbing", "periodic"]),
       seed=st.integers(0, 2**16), s=st.integers(1, 4), m=st.integers(1, 3),
       n_start=st.integers(0, 2), span=st.integers(0, 2))
def test_restricted_sweep_equals_full_grid_lp_property(kind, seed, s, m, n_start, span):
    if kind == "ring":
        model = random_model(seed, max(s, 2), m)
    elif kind == "two-successor":
        model = two_successor_model(seed, s, m)
    elif kind == "absorbing":
        model = _absorbing_model(seed, s, m)
    else:
        model = _periodic_model(seed, 2 * ((s + 1) // 2), m)
    resolutions = range(n_start, min(4, n_start + span) + 1)
    if neg_inf_states(model).any():
        # the game value is -inf: both LPs' duals are infeasible
        for solve in (lambda: full_grid_solution(model, n_start),
                      lambda: solve_sequence(model, n_start, resolutions[-1])):
            with pytest.raises(LpError, match=NEG_INF_OUTCOME):
                solve()
        return
    _assert_sweep_equals_full_grid(model, n_start, [full_grid_solution(model, n)
                                                     for n in resolutions])


def test_wide_grid_master_stays_small(monkeypatch):
    # the benchmark's wide model: the n=6 lattice has 287,430 kernel rows,
    # the sweep's master ends with 56 in 11 LP solves (measured); a solve
    # that enumerated the lattice would hold far more rows, and one that
    # restarted each resolution from the Dirac rows makes 19 solves
    model = wide_model(901, 0)
    sizes = []
    solve_pair = game._solve_pair

    def record(model, rows, owner, **kwargs):
        sizes.append(rows.shape[0])
        return solve_pair(model, rows, owner, **kwargs)

    monkeypatch.setattr(game, "_solve_pair", record)
    rep = solve_sequence(model, 2, 6, stop_tol=0.0)
    assert rep.final.num_constraints == 2 * 287_430
    assert max(sizes) <= 56
    assert len(sizes) == sum(rep.rounds) <= 11


def _solve_from(model, start=None):
    """solve_congen, its first round from start in place of _crash_start (if
    given), and the number of LP solves it made."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        if start is not None:
            patch.setattr(game, "_crash_start", start)
        solve = game.lp_solve
        patch.setattr(game, "lp_solve", lambda program, **kw: calls.append(1) or solve(program, **kw))
        return solve_congen(model), len(calls)


def _forced_cold(model):
    """solve_congen from the Dirac seed, its first LP cold."""
    return _solve_from(model, dirac_start)[0]


RING_LADDER = [4, 8, 16, 32, 64, 128]


@pytest.mark.parametrize("s", RING_LADDER)
def test_congen_crash_is_accepted_on_the_ring_ladder(monkeypatch, crash_lp, s):
    # the crash LP, without the closed form: the Perron pure policy's vertex
    # is optimal for the first LP and prices clean: one LP solve, warm and
    # without a pivot, at the optimum a cold solve of that LP finds
    # (compared up to s = 32, where a cold solve of it is quick)
    calls = _recorded_lp_solves(monkeypatch)
    sol = solve_congen(random_model(3, s, 3))
    assert sol.certified and sol.rounds == len(calls) == 1
    prog, basis, got = calls[0]
    assert basis is not None and got.warm_started and got.iterations == 0
    if s <= 32:
        assert abs(got.objective_value - lp_solve(prog).objective_value) <= 1e-9


@pytest.mark.parametrize("s", RING_LADDER)
def test_congen_crash_point_closes_the_ring_ladder_without_an_lp(monkeypatch, s):
    # the crash point verifies and prices clean: one round, no LP solve and
    # no basis inverse, at the value the crash LP's optimum sum(w) = s * lambda
    # gives
    model = random_model(3, s, 3)
    calls = _recorded_lp_solves(monkeypatch)
    inverses = counted_inverses(monkeypatch)
    sol = solve_congen(model)
    assert sol.certified and sol.rounds == 1
    assert calls == [] and inverses == []
    monkeypatch.undo()
    calls = _recorded_lp_solves(monkeypatch)
    monkeypatch.setattr(game, "_crash_start", crash_lp_start)
    assert solve_congen(model).rounds == len(calls) == 1
    assert abs(sol.lambda_bar - calls[0][2].objective_value / s) <= 1e-9


PERIODIC_CYCLE = MdpModel(states=("x", "y"), actions=("a",),
                          kernel=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                          cost=np.array([[0.3], [0.1]]))
COSTLY = MdpModel(states=("a", "b"), actions=("x", "y"),
                  kernel=np.array([[[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.5], [0.2, 0.8]]]),
                  cost=np.array([[990.0, 1000.0], [995.0, 998.0]]))
CRASH_CASES = {
    # (model, whether the crash applies)
    "differing-supports": (DIFFERING_SUPPORTS, False),     # I_a is empty
    "two-successor-0": (two_successor_model(0, 3, 2), False),
    "absorbing-4": (_absorbing_model(5, 4, 2), False),     # reducible
    "periodic-cycle": (PERIODIC_CYCLE, True),
    "periodic-4": (_periodic_model(6, 4, 2), True),
    "costs-1e3": (COSTLY, True),
    "single-state": (SINGLE_STATE, True),
    "sticky-ring": (sticky_ring(), True),
}


@pytest.mark.parametrize("case", CRASH_CASES)
def test_congen_crash_applies_or_falls_back_to_the_dirac_seed(case):
    # where the crash cannot apply, the working set is exactly the Dirac
    # seed and the first LP starts cold; either way congen ends within
    # inner_tol of the forced-cold solve
    model, applies = CRASH_CASES[case]
    rows, owner, basis, point = game._crash_start(model)
    assert (basis is not None) == (point is not None) == applies
    if not applies:
        seed_rows, seed_owner, _, _ = dirac_start(model)
        assert rows.tobytes() == seed_rows.tobytes() and owner.tobytes() == seed_owner.tobytes()
    got, cold = solve_congen(model), _forced_cold(model)
    assert got.certified and cold.certified
    assert abs(got.lambda_bar - cold.lambda_bar) <= 1e-6


def test_congen_crash_falls_back_where_the_invariant_law_has_a_zero(monkeypatch):
    # perron_policy gives no vector on a reducible chain; handed one anyway
    # (state 0 absorbs, state 1 is transient), pi is 0 at state 1
    model = MdpModel(states=("a", "b"), actions=("x",), kernel=np.array([[[1.0, 0.0], [0.5, 0.5]]]),
                     cost=np.array([[0.1], [0.9]]))
    monkeypatch.setattr(game, "perron_policy", lambda model: (np.zeros(2, dtype=int), np.zeros(2)))
    assert game._crash_start(model)[2:] == (None, None)


def test_congen_crash_falls_back_where_every_common_support_is_empty():
    # x always moves to a, y to b: no twisted row binds, and the -inf
    # outcome is the solver failure it was
    model = MdpModel(states=("a", "b"), actions=("x", "y"),
                     kernel=np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]),
                     cost=np.array([[0.2, 0.9], [0.5, 0.1]]))
    assert game._crash_start(model)[2:] == (None, None)
    with pytest.raises(LpError, match=NEG_INF_OUTCOME):
        solve_congen(model)


@pytest.mark.parametrize("costs, crash", [([0.0, 1.0], False), ([1.0, 0.0], True)])
def test_congen_crash_takes_a_subnormal_invariant_mass(costs, crash):
    # a exits to b with probability 1e-310.  With the cost at b the twisted
    # chain's pi is 0 at a and the Dirac rows come alone; with the cost at a,
    # pi_b is subnormal, nu_b / pi_b overflows to +inf, and the crash point
    # stands
    model = MdpModel(states=("a", "b"), actions=("x",),
                     kernel=np.array([[[1.0, 1e-310], [0.5, 0.5]]]),
                     cost=np.array(costs)[:, None])
    assert (game._crash_start(model)[2] is not None) == crash
    sol = solve_congen(model)
    assert sol.certified
    assert abs(sol.lambda_bar - brute_force_lambda_star(model).value) <= 1e-9


# derandomized: both solves stop within inner_tol of the value, so their
# distance can come near inner_tol (8.9e-7 was the largest in 3,000 random
# draws of these families with up to 8 states)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["ring", "jitter", "two-successor", "absorbing", "periodic"]),
       seed=st.integers(0, 2**16), s=st.integers(1, 4), m=st.integers(1, 3))
def test_congen_crash_value_is_the_forced_cold_value(kind, seed, s, m):
    if kind in ("ring", "jitter"):
        model = random_model(seed, max(s, 2), m, kernel_jitter=0.2 if kind == "jitter" else 0.005)
    elif kind == "two-successor":
        model = two_successor_model(seed, s, m)
    elif kind == "absorbing":
        model = _absorbing_model(seed, s, m)
    else:
        model = _periodic_model(seed, 2 * ((s + 1) // 2), m)
    if neg_inf_states(model).any():
        for solve in (lambda: solve_congen(model), lambda: _forced_cold(model)):
            with pytest.raises(LpError, match=NEG_INF_OUTCOME):
                solve()
        return
    (got, lp_solves), cold = _solve_from(model), _forced_cold(model)
    assert got.certified and cold.certified
    assert abs(got.lambda_bar - cold.lambda_bar) <= 1e-6
    assert lp_solves in (got.rounds, got.rounds - 1)
    if lp_solves < got.rounds:
        # the first round was the crash point: it is the crash LP's value,
        # and its (beta, V) passes verify's default tolerance
        assert closed_form_applies(model)
        assert abs(got.lambda_bar - _solve_from(model, crash_lp_start)[0].lambda_bar) <= 1e-6
        assert worst_residual(build_certificate(model, got.value, got.potentials)) <= 1e-3


def _scaled_pi(model, k):
    """_crash_start with entry k of the twisted chain's invariant law pi
    scaled by 1.01 (the first np.linalg.solve it makes gives pi)."""
    solve, calls = np.linalg.solve, []

    def mutated(a, b):
        out = solve(a, b)
        if not calls:
            out[k] *= 1.01
        calls.append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", mutated)
        return CRASH_START(model)


def _switched_v(model, k):
    """_crash_start at perron_policy's pure policy with state k's action
    switched, and its log Perron vector kept."""
    choice, log_h = perron_policy(model)
    choice = choice.copy()
    choice[k] = (choice[k] + 1) % model.num_actions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "perron_policy", lambda model: (choice, log_h))
        return CRASH_START(model)


def _shifted_log_h(model, k):
    """_crash_start with perron_policy's log Perron vector shifted by 0.1 at
    state k."""
    choice, log_h = perron_policy(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "perron_policy",
                      lambda model: (choice, log_h + 0.1 * (np.arange(len(log_h)) == k)))
        return CRASH_START(model)


CRASH_START = game._crash_start
MUTATIONS = {"pi-scaled": _scaled_pi, "v-switched": _switched_v,
             "log-h-shifted": _shifted_log_h}


@pytest.mark.parametrize("s", [8, 32])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_congen_never_returns_a_mutated_crash_point(monkeypatch, mutation, s):
    # the unmutated crash point closes these rings with no LP; a mutated one
    # fails _verify_pair or prices dirty, so congen solves an LP and ends at
    # the crash LP's value, and no round is the mutated point
    model = random_model(3, s, 3)
    assert closed_form_applies(model)
    start = MUTATIONS[mutation](model, 1)
    point = start[3]
    assert point is not None
    monkeypatch.setattr(game, "_crash_start", lambda model: start)
    rounds, solve_pair = [], game._solve_pair

    def record(*args, **kwargs):
        rounds.append(solve_pair(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(game, "_solve_pair", record)
    got, lp_solves = _solve_from(model)
    want, _ = _solve_from(model, crash_lp_start)
    assert got.certified and lp_solves >= 1
    assert abs(got.lambda_bar - want.lambda_bar) <= 1e-6
    assert all(rnd.x is not point[3] for rnd in rounds)
