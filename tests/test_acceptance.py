"""Acceptance gate: every criterion below runs at its stated tolerance and
emits one pass line.  The model corpus is the fixed seeded set from
helpers.CORPUS_SPECS (10 models, s in {2,3,4}, |U| in {2,3}, costs in [0,1],
two-state supports)."""

import itertools
import math
import time

import numpy as np
import pytest

from riskmdp.certify import (
    CertificationError,
    analytic_example,
    build_certificate,
    poisson_insolvability,
    two_state_model,
)
from riskmdp.game import solve_congen, solve_sequence
from riskmdp.model import KernelMatrix
from riskmdp.oracle import brute_force_lambda_star

from conftest import record_criterion as announce
from helpers import (as_stationary, game_payoff, pure_policy, scan_self_loop_weight,
                     solve_game, worst_residual)

DEVIATION_SEED = 777


@pytest.fixture(scope="module")
def corpus_solutions(model_corpus):
    """Per model: the full resolution ladder n=2..8, the sweep report, and
    the brute-force oracle.  Timed for the cross-oracle runtime budget."""
    t0 = time.perf_counter()
    data = {}
    for name, model in model_corpus:
        ladder = {n: solve_game(model, n) for n in range(2, 9)}
        report = solve_sequence(model, 2, 8, 1e-4)
        brute = brute_force_lambda_star(model)
        data[name] = (model, ladder, report, brute)
    elapsed = time.perf_counter() - t0
    return data, elapsed


def test_criterion_1_supercritical_closed_form():
    for rho in (0.5, 0.8, 0.95):
        target = 1.0 + math.log(rho)
        model = two_state_model(rho)
        t0 = time.perf_counter()
        rep = solve_sequence(model, 2, 8, 1e-4)
        brute = brute_force_lambda_star(model)
        elapsed = time.perf_counter() - t0
        assert abs(rep.lambda_bar - target) <= 2e-2, rho
        assert abs(brute.value - target) <= 1e-6, rho
        assert rep.final.maximizer.entries[1, 1] >= 1.0 - 1e-6, rho
        assert elapsed < 5.0, (rho, elapsed)
    announce("CRITERION 1 PASS: supercritical closed form matched for "
             "rho in {0.5, 0.8, 0.95} (solve within 2e-2, oracle within 1e-6, "
             "q22 = 1) under 5 s each")


def test_criterion_2_subcritical_closed_form():
    rho = math.exp(-2)
    t0 = time.perf_counter()
    rep = solve_sequence(two_state_model(rho), 2, 8, 1e-4)
    elapsed = time.perf_counter() - t0
    assert abs(rep.lambda_bar) <= 2e-2
    q22 = float(rep.final.maximizer.entries[1, 1])
    assert 0.05 < q22 < 0.95
    ana = analytic_example(rho)
    assert abs(ana.q22 - scan_self_loop_weight(rho)) <= 1e-5
    assert elapsed < 5.0
    announce(f"CRITERION 2 PASS: subcritical value 0 within 2e-2, extracted "
             f"q22 = {q22:.4f} interior, closed form matches 1e-6 scan within 1e-5, "
             f"under 5 s")


def test_criterion_3_cross_oracle_equivalence(corpus_solutions):
    data, elapsed = corpus_solutions
    worst = 0.0
    for name, (model, ladder, report, brute) in data.items():
        gap = abs(ladder[8].lambda_bar - brute.value)
        assert gap <= 3e-2, (name, gap)
        worst = max(worst, gap)
    assert elapsed < 60.0, elapsed
    announce(f"CRITERION 3 PASS: LP(n=8) vs brute force within 3e-2 on all 10 "
             f"corpus models (worst gap {worst:.2e}) in {elapsed:.1f} s")


def test_criterion_4_monotone_value_trace(corpus_solutions):
    # grid refinement enlarges the maximizer's strategy set, so the per-state
    # values form a monotone trace; violations beyond 1e-7 fail the suite
    data, _ = corpus_solutions
    worst = 0.0
    for name, (model, ladder, report, brute) in data.items():
        for n in range(2, 8):
            step = ladder[n].value - ladder[n + 1].value
            worst = max(worst, float(step.max()))
            assert float(step.max()) <= 1e-7, (name, n)
        for early, late in zip(report.beta_trace, report.beta_trace[1:]):
            assert float((early - late).max()) <= 1e-7, name
    announce(f"CRITERION 4 PASS: componentwise monotone value traces for "
             f"n=2..8 on the corpus (worst backward step {worst:.2e} <= 1e-7)")


def test_criterion_5_strong_duality_and_fixed_point(corpus_solutions):
    data, _ = corpus_solutions
    worst_gap, worst_fix = 0.0, 0.0
    for name, (model, ladder, report, brute) in data.items():
        for n, sol in ladder.items():
            gap = abs(float(sol.value.sum()) - float(sol.dual_w.sum()))
            fix = float(np.abs(sol.value - sol.maximizer.entries @ sol.value).max())
            assert gap <= 1e-6, (name, n, gap)
            assert fix <= 1e-6, (name, n, fix)
            worst_gap, worst_fix = max(worst_gap, gap), max(worst_fix, fix)
    announce(f"CRITERION 5 PASS: |sum(beta) - sum(w)| <= 1e-6 and "
             f"||beta - P beta|| <= 1e-6 on every solved program "
             f"(worst {worst_gap:.2e} / {worst_fix:.2e})")


def test_criterion_6_dp_certification_with_sensitivity(corpus_solutions):
    data, _ = corpus_solutions
    bound = 1e-3
    mapped = math.expm1(bound)  # multiplicative-form residuals, relative scale
    worst = 0.0
    for name, (model, ladder, report, brute) in data.items():
        sol = ladder[8]
        cert = build_certificate(model, sol.value, sol.potentials)
        assert worst_residual(cert) <= bound, (name, worst_residual(cert))
        checks = cert.checks()
        rel_eigen = checks["twisted_eigen_rel"]
        rel_avg = checks["twisted_averaging_rel"]
        assert float(rel_eigen.max()) <= mapped, name
        assert float(rel_avg.max()) <= mapped, name
        worst = max(worst, worst_residual(cert), float(rel_eigen.max()))
        for i in range(model.num_states):
            phi = sol.value.copy()
            phi[i] += 0.1
            try:
                tampered = build_certificate(model, phi, sol.potentials)
            except CertificationError:
                continue  # perturbation broke the partition outright
            assert worst_residual(tampered) > bound, (name, i)
    announce(f"CRITERION 6 PASS: certification residuals <= 1e-3 on the corpus "
             f"(worst {worst:.2e}); every 0.1 value perturbation is rejected")


def test_criterion_7_saddle_point_spot_checks(corpus_solutions):
    data, _ = corpus_solutions
    rng = np.random.default_rng(DEVIATION_SEED)
    for name, (model, ladder, report, brute) in data.items():
        sol = ladder[8]
        value = sol.lambda_bar
        v_star = as_stationary(sol.minimizer_pure, model.num_actions)
        for _ in range(50):
            q = np.zeros((model.num_states, model.num_states))
            for i in range(model.num_states):
                supp = np.flatnonzero(model.support[i])
                q[i, supp] = rng.dirichlet(np.ones(len(supp)))
            payoff = game_payoff(model, KernelMatrix.for_model(model, q), v_star)
            assert payoff.phi_max <= value + 3e-2, name
        for choice in itertools.product(range(model.num_actions),
                                        repeat=model.num_states):
            payoff = game_payoff(model, sol.maximizer,
                                 pure_policy(choice, model.num_actions))
            assert payoff.phi_max >= value - 3e-2, (name, choice)
    announce("CRITERION 7 PASS: 50 seeded kernel deviations never beat the "
             "value by 3e-2 and no pure policy deviation drops below it "
             "by 3e-2, on all corpus models")


def test_criterion_8_poisson_insolvability():
    scan = poisson_insolvability(0.8)
    assert scan.satisfying_pairs == 0
    assert scan.reduction_impossible
    announce(f"CRITERION 8 PASS: rho=0.8 scan of {scan.total_pairs} pairs finds "
             f"no solution of the multiplicative fixed-point inequality; "
             f"analytic reduction confirms impossibility")


def test_criterion_9_method_agreement(corpus_solutions):
    data, _ = corpus_solutions
    worst = 0.0
    ratios = []
    for name, (model, ladder, report, brute) in data.items():
        grid_sol = ladder[8]
        cg = solve_congen(model)
        assert cg.certified, name
        gap = abs(cg.lambda_bar - grid_sol.lambda_bar)
        assert gap <= 1e-3, (name, gap)
        worst = max(worst, gap)
        if model.num_states == 4:
            ratio = cg.num_constraints / grid_sol.num_constraints
            assert ratio <= 0.10, (name, ratio)
            ratios.append(ratio)
    assert ratios, "corpus must contain s=4 instances"
    announce(f"CRITERION 9 PASS: constraint generation agrees with the grid "
             f"method within 1e-3 (worst {worst:.2e}); s=4 constraint ratios "
             f"{[f'{r:.3f}' for r in ratios]} all <= 0.10")
