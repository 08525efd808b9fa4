import math

import numpy as np
import pytest

from riskmdp.certify import (
    AmbiguousLevelsError,
    CertificationError,
    analytic_example,
    build_certificate,
    build_partition,
    hat_kernel,
    poisson_insolvability,
    two_state_model,
)
from riskmdp.errors import ModelError
from riskmdp.game import solve_congen, solve_sequence
from riskmdp.model import MdpModel, StationaryPolicy
from riskmdp.oracle import growth_rate

from helpers import build_grid, check_dp, random_model, scan_self_loop_weight, worst_residual

VAL08 = 1.0 + math.log(0.8)


# -- level partition ----------------------------------------------------------

def test_partition_two_singleton_levels():
    part = build_partition([0.0, 0.7768])
    assert part.levels == ((0,), (1,))
    assert part.values == (0.0, 0.7768)


def test_partition_constant_vector_is_single_level():
    assert build_partition([0.4, 0.4, 0.4]).levels == ((0, 1, 2),)


def test_partition_clusters_by_tolerance():
    part = build_partition([0.1, 0.1 + 5e-7, 0.9])
    assert part.levels == ((0, 1), (2,))


def test_partition_reports_ambiguous_chains():
    with pytest.raises(AmbiguousLevelsError):
        build_partition([0.0, 0.6e-6, 1.2e-6])


# -- restricted kernel --------------------------------------------------------

def test_hat_kernel_single_level_is_full_kernel():
    model = random_model(61, 3, 2)
    hat = hat_kernel(model, build_partition([0.2, 0.2, 0.2]))
    np.testing.assert_array_equal(hat, model.kernel)


def test_hat_kernel_two_state_chain_blocks():
    model = two_state_model(0.8)
    hat = hat_kernel(model, build_partition([0.0, VAL08]))
    np.testing.assert_allclose(hat[0], [[1.0, 0.0], [0.0, 0.8]])


def test_hat_kernel_absorbing_model_diagonal():
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                     cost=np.array([[0.0], [1.0]]))
    hat = hat_kernel(model, build_partition([0.0, 1.0]))
    np.testing.assert_array_equal(hat[0], np.eye(2))


def test_hat_kernel_flags_dead_state():
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.0, 1.0], [0.0, 1.0]]]),
                     cost=np.zeros((2, 1)))
    with pytest.raises(CertificationError, match="cannot remain"):
        hat_kernel(model, build_partition([5.0, 0.0]))


# -- additive-form equations --------------------------------------------------

def test_check_dp_two_state_chain_exact():
    model = two_state_model(0.8)
    for v in (np.array([0.0, 0.0]), np.array([3.0, -1.5])):
        r1, r2 = check_dp(model, np.array([0.0, VAL08]), v)
        assert r1.max() <= 1e-9
        assert r2.max() <= 1e-9


def test_check_dp_single_state_reduces_to_cheapest_action():
    model = MdpModel(states=("s",), actions=("a", "b"),
                     kernel=np.ones((2, 1, 1)), cost=np.array([[0.4, 0.9]]))
    r1, r2 = check_dp(model, np.array([0.4]), np.array([0.0]))
    assert r1.max() == 0.0 and r2.max() <= 1e-12
    r1, r2 = check_dp(model, np.array([0.9]), np.array([0.0]))
    assert r2.max() >= 0.4999


def test_check_dp_detects_perturbation():
    model = two_state_model(0.8)
    r1, r2 = check_dp(model, np.array([0.0, VAL08 + 0.1]), np.zeros(2))
    assert max(r1.max(), r2.max()) >= 0.09


# -- multiplicative-form equations ----------------------------------------------

def test_check_twisted_two_state_chain():
    model = two_state_model(0.8)
    cert = build_certificate(model, np.array([0.0, VAL08]), np.array([0.7, -0.3]))
    assert cert.twisted_eigen.max() <= 1e-12
    assert cert.twisted_averaging.max() <= 1e-12
    assert cert.b_star.tolist() == [[True], [True]]


def test_check_twisted_zero_cost_single_level():
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.25, 0.75], [0.5, 0.5]]]),
                     cost=np.zeros((2, 1)))
    cert = build_certificate(model, np.zeros(2), np.zeros(2))
    # with V = 0 the twisted kernel is the kernel itself
    np.testing.assert_allclose(cert.weights, model.kernel, rtol=0, atol=1e-15)
    assert cert.twisted_eigen.max() <= 1e-12
    assert cert.twisted_averaging.max() <= 1e-12


def test_twisted_residual_is_exp_image_of_additive_residual():
    model = random_model(62, 3, 2)
    rng = np.random.default_rng(62)
    phi = np.full(3, 0.3)
    v = rng.normal(size=3)
    cert = build_certificate(model, phi, v)
    hat = cert.hat
    for i in range(3):
        rhs = min(
            model.cost[i, u] + math.log(float(hat[u, i] @ np.exp(v)))
            for u in range(2) if hat[u, i].sum() > 0.0
        )
        expected = abs(math.expm1(rhs - phi[i] - v[i]))
        assert cert.twisted_eigen[i] == pytest.approx(expected, abs=1e-8)


def test_twisted_weights_sum_to_one():
    # the weights the averaging residual reads: phat e^V normalized per
    # (action, state) row, zero off the restricted support
    model = random_model(63, 4, 3)
    sol = solve_sequence(model, 2, 6, 1e-4).final
    cert = build_certificate(model, sol.value, sol.potentials)
    phi = sol.value
    for i in range(4):
        averages = []
        for u in range(3):
            row = cert.hat[u, i] * np.exp(sol.potentials)
            if row.sum() > 0.0:
                assert abs(cert.weights[u, i].sum() - 1.0) <= 1e-12
                np.testing.assert_allclose(cert.weights[u, i], row / row.sum(),
                                           rtol=1e-12, atol=0)
            else:
                assert not cert.weights[u, i].any()
            if cert.b_star[i, u]:
                averages.append(float(cert.weights[u, i] @ np.exp(phi - phi[i])))
        assert cert.twisted_averaging[i] == pytest.approx(abs(1.0 - min(averages)),
                                                          abs=1e-15)


@pytest.mark.parametrize("shift", [-1000.0, -745.0, 0.0, 709.0, 1000.0])
def test_certificate_is_invariant_under_a_common_cost_and_value_shift(shift):
    # adding K to every cost adds K to the value; no residual may notice,
    # however far K puts e^{c} and e^{Phi} out of double range
    model = random_model(64, 3, 3)
    sol = solve_congen(model)
    base = build_certificate(model, sol.value, sol.potentials).checks()
    shifted_model = MdpModel(model.states, model.actions, model.kernel, model.cost + shift)
    cert = build_certificate(shifted_model, sol.value + shift, sol.potentials)
    for name, residual in cert.checks().items():
        np.testing.assert_allclose(residual, base[name], rtol=0, atol=1e-9, err_msg=name)


# -- end-to-end ---------------------------------------------------------------

def test_end_to_end_certification_of_lp_solution():
    model = random_model(64, 3, 3)
    rep = solve_sequence(model, 2, 8, 1e-4)
    cert = build_certificate(model, rep.final.value, rep.final.potentials)
    bound = max(1e-3, 10 * 1e-4)
    assert worst_residual(cert) <= bound


def test_b_set_matches_partition_on_grid_rows():
    # rows supported inside a state's level attain the first equation's max
    model = two_state_model(0.8)
    phi = np.array([0.0, VAL08])
    part = build_partition(phi)
    level = {i: k for k, members in enumerate(part.levels) for i in members}
    grid = build_grid(model, 3)
    for i in range(2):
        for row in grid.rows[i]:
            in_level = all(level[j] == level[i] for j in np.flatnonzero(row))
            attains = math.isclose(float(row @ phi), phi[i], abs_tol=1e-12)
            assert in_level == attains


# -- analytic example ---------------------------------------------------------

def test_analytic_supercritical():
    ana = analytic_example(0.8)
    np.testing.assert_allclose(ana.phi_star, [0.0, VAL08])
    assert ana.q22 == 1.0
    assert math.isclose(ana.lambda_bar, VAL08)
    assert ana.supercritical


def test_analytic_subcritical_bisection():
    rho = math.exp(-2)
    ana = analytic_example(rho)
    assert ana.lambda_bar == 0.0
    assert np.all(ana.phi_star == 0.0)
    # stationarity of the Gibbs response fixes the self-loop weight at e*rho
    assert ana.q22 == math.e * rho


def test_analytic_subcritical_matches_dense_scan():
    rho = math.exp(-2)
    ana = analytic_example(rho)
    assert abs(ana.q22 - scan_self_loop_weight(rho)) <= 1e-5


@pytest.mark.parametrize("rho", [0.5, 0.8, math.exp(-2), 0.95])
def test_analytic_matches_growth_rate_oracle(rho):
    ana = analytic_example(rho)
    rates = growth_rate(two_state_model(rho), StationaryPolicy(np.ones((2, 1))))
    assert abs(ana.lambda_bar - rates.lambda_max) <= 1e-6


def test_analytic_boundary_and_domain_errors():
    with pytest.raises(ModelError):
        analytic_example(math.exp(-1))
    with pytest.raises(ModelError):
        analytic_example(1.5)


# -- multiplicative fixed-point scan -------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_poisson_scan_finds_no_satisfying_pair(rho):
    scan = poisson_insolvability(rho)
    assert scan.satisfying_pairs == 0
    assert scan.total_pairs == 401 * 401
    assert scan.reduction_impossible


def test_poisson_scan_rejects_subcritical():
    with pytest.raises(ModelError):
        poisson_insolvability(math.exp(-2))
