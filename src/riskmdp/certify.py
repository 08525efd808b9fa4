"""Certification of solver output against the nested dynamic-programming
equations, plus the analytic two-state chain they are calibrated on.

A candidate (Phi, V) is checked two ways.  First in additive form: Phi must
be a fixed point of the support maximum (the maximizing kernel row for a
linear objective is a point mass), and Phi + V must match the min over
actions of the level-restricted Gibbs value
c(i,u) + log sum_j phat(j|i,u) exp(V_j).  Second in multiplicative form
through Lambda = exp(Phi), Psi = exp(V), where the same equations read as a
minimal eigenvalue problem with averaging under a reweighted ("twisted")
kernel.  Both forms are read from one log-space pass over the Gibbs values,
and the multiplicative residuals are kept relative to their own scale, so
neither form exponentiates a value.  The level partition groups states by
equal Phi and the restricted kernel phat keeps only within-level transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .model import MdpModel

LEVEL_TOL = 1e-6


class CertificationError(RuntimeError):
    """The certificate cannot be built: the partition is inconsistent with
    the kernel (a state cannot stay in its level under any action), or the
    residuals are out of double range."""


class AmbiguousLevelsError(CertificationError):
    """Two candidate level groupings sit within the clustering tolerance."""


@dataclass(frozen=True)
class LevelPartition:
    """States grouped by equal optimal value, levels strictly increasing."""

    levels: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class DpCertificate:
    """Residuals of both forms of the DP equations at a candidate (Phi, V).

    The multiplicative residuals are relative to their own scale, e^{Phi_i +
    V_i} for the eigenvalue equation and e^{Phi_i} for the averaging one, so
    one tolerance judges all four arrays of `checks`.
    """

    partition: LevelPartition
    hat: np.ndarray                # restricted kernel, (actions, s, s)
    weights: np.ndarray            # twisted kernel phat e^V / sum phat e^V, (actions, s, s)
    residual_dp1: np.ndarray
    residual_dp2: np.ndarray
    twisted_eigen: np.ndarray      # |expm1(best_i - Phi_i - V_i)|
    twisted_averaging: np.ndarray  # |1 - min over tight u of sum_j w e^{Phi_j - Phi_i}|
    b_star: np.ndarray             # tight actions, (s, actions) bool

    def checks(self) -> dict[str, np.ndarray]:
        """The per-state residual arrays that `verify` compares to its tolerance."""
        return {"dp1": self.residual_dp1, "dp2": self.residual_dp2,
                "twisted_eigen_rel": self.twisted_eigen,
                "twisted_averaging_rel": self.twisted_averaging}


def build_partition(phi_star) -> LevelPartition:
    """Cluster states by value: consecutive sorted values join a level when
    they differ by at most LEVEL_TOL.

    A chain whose links all fit the tolerance but whose total spread exceeds
    it admits two groupings; that ambiguity is reported, not resolved.
    """
    phi = np.asarray(phi_star, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    order = np.argsort(phi, kind="stable")
    levels = []
    current = [int(order[0])]
    for k in range(1, len(order)):
        i = int(order[k])
        if phi[i] - phi[int(current[-1])] <= LEVEL_TOL:
            current.append(i)
        else:
            levels.append(current)
            current = [i]
    levels.append(current)
    values = []
    for members in levels:
        vals = phi[members]
        if float(vals.max() - vals.min()) > LEVEL_TOL:
            raise AmbiguousLevelsError(
                f"states {sorted(members)} chain together within {LEVEL_TOL:g} "
                f"but spread {float(vals.max() - vals.min()):.3e} exceeds it"
            )
        values.append(float(vals.mean()))
    return LevelPartition(
        levels=tuple(tuple(sorted(members)) for members in levels),
        values=tuple(values),
    )


def hat_kernel(model: MdpModel, partition: LevelPartition) -> np.ndarray:
    """Block-diagonal restriction of the kernel to within-level transitions.

    Rows may be sub-stochastic.  A state whose restricted row vanishes for
    every action cannot stay in its level, which contradicts the partition
    coming from a genuine solution; that is flagged as an error.
    """
    index = np.full(model.num_states, -1)
    for k, members in enumerate(partition.levels):
        index[list(members)] = k
    if (index < 0).any():
        raise ValueError("partition does not cover the state space")
    hat = np.where(index[:, None] == index[None, :], model.kernel, 0.0)
    dead = np.flatnonzero(~hat.any(axis=(0, 2)))
    if dead.size:
        raise CertificationError(
            f"states {dead.tolist()} cannot remain in their level under any action; "
            "the candidate values are inconsistent with the kernel"
        )
    return hat


def build_certificate(model: MdpModel, phi_star, v_vec) -> DpCertificate:
    """Both forms of the DP residuals at (Phi, V), in one log-space pass over
    (action, state, successor) arrays.

    The first equation's maximizing row is a point mass, so dp1 is
    |Phi_i - max of Phi over the union support|.  The second equation's inner
    maximum over level-feasible rows is the Gibbs value
    G(i,u) = c(i,u) + log sum_j phat(j|i,u) e^{V_j}; an action whose
    restricted row vanishes admits no feasible row and drops out of the min
    (G = +inf), and dp2 is |Phi_i + V_i - best_i| with best_i = min_u G(i,u).
    Through Lambda = e^Phi and Psi = e^V the same numbers give the
    multiplicative form: the eigenvalue residual relative to Lambda_i Psi_i is
    |expm1(best_i - Phi_i - V_i)|, and the averaging residual relative to
    Lambda_i compares 1 with the least twisted average of e^{Phi_j - Phi_i}
    over the tight actions, those with e^G <= e^best + LEVEL_TOL.  No
    exponential of a value is formed; a residual that is still out of double
    range raises CertificationError.
    """
    phi = np.asarray(phi_star, dtype=float)
    v = np.asarray(v_vec, dtype=float)
    partition = build_partition(phi)
    hat = hat_kernel(model, partition)
    # log(0) marks the restricted support with -inf; an overflow shows up as
    # a residual that is not finite, which is rejected below
    with np.errstate(all="ignore"):
        z = np.log(hat) + v
        top = z.max(axis=2)
        live = top > -np.inf                       # (actions, s): restricted row kept
        shifted = np.exp(z - np.where(live, top, 0.0)[..., None])
        total = shifted.sum(axis=2)
        weights = shifted / np.where(live, total, 1.0)[..., None]
        gibbs = np.where(live, model.cost.T + top + np.log(total), np.inf).T
        best = gibbs.min(axis=1)
        excess = phi + v - best
        tight = best[:, None] + np.log(np.expm1(gibbs - best[:, None])) <= math.log(LEVEL_TOL)
        # e^{Phi_j - Phi_i} where some restricted row has mass, so within a level
        ratio = np.exp(np.where(hat.any(axis=0), phi - phi[:, None], 0.0))
        average = np.where(tight, (weights * ratio).sum(axis=2).T, np.inf).min(axis=1)
        residuals = (np.abs(phi - np.where(model.support, phi, -np.inf).max(axis=1)),
                     np.abs(excess), np.abs(np.expm1(-excess)), np.abs(1.0 - average))
    if not np.isfinite(residuals).all():
        raise CertificationError(
            "the residuals are not finite in double precision; the candidate "
            "values are out of range for the multiplicative form"
        )
    return DpCertificate(partition, hat, weights, *residuals, b_star=tight)


# ---------------------------------------------------------------------------
# analytic two-state chain: absorbing cheap state, sticky expensive state

def two_state_model(rho: float) -> MdpModel:
    """Uncontrolled chain: state 1 absorbs at cost 0; state 2 self-loops with
    probability rho at cost 1."""
    if not 0.0 < rho < 1.0:
        raise ModelError(f"rho must lie in (0, 1), got {rho}")
    return MdpModel(
        states=("1", "2"), actions=("a",),
        kernel=np.array([[[1.0, 0.0], [1.0 - rho, rho]]]),
        cost=np.array([[0.0], [1.0]]),
    )


@dataclass(frozen=True)
class AnalyticExample:
    rho: float
    phi_star: np.ndarray
    q22: float
    lambda_bar: float
    supercritical: bool  # log(rho) > -1: sticky state dominates


def analytic_example(rho: float) -> AnalyticExample:
    """Closed-form solution of the two-state chain.

    For log(rho) > -1 the expensive state keeps all its mass and the value
    there is 1 + log(rho).  For log(rho) < -1 the value is 0 and the
    extracted self-loop weight is the maximizer of B(q)/(1-q), with
    B(q) = 1 - q log(q/rho) - (1-q) log((1-q)/(1-rho)): stationarity of the
    transient fixed point V = max_q [B(q) + q V].  With
    B'(q) = log((1-q)/(1-rho)) - log(q/rho), the optimality condition
    B(q) + (1-q) B'(q) = 0 reduces to 1 - log(q/rho) = 0, so q22 = e * rho,
    which lies in (rho, 1) exactly when log(rho) < -1.  The boundary
    log(rho) = -1 is excluded.
    """
    if not 0.0 < rho < 1.0:
        raise ModelError(f"rho must lie in (0, 1), got {rho}")
    log_rho = math.log(rho)
    if abs(log_rho + 1.0) < 1e-12:
        raise ModelError("rho = exp(-1) sits on the phase boundary; not handled")
    if log_rho > -1.0:
        value = 1.0 + log_rho
        return AnalyticExample(rho=rho, phi_star=np.array([0.0, value]),
                               q22=1.0, lambda_bar=value, supercritical=True)
    return AnalyticExample(rho=rho, phi_star=np.zeros(2), q22=math.e * rho,
                           lambda_bar=0.0, supercritical=False)


@dataclass(frozen=True)
class PoissonScan:
    rho: float
    satisfying_pairs: int
    total_pairs: int
    reduction_impossible: bool


def poisson_insolvability(rho: float) -> PoissonScan:
    """Confirm the multiplicative fixed-point inequality has no solution.

    For log(rho) > -1 the candidate inequality at the expensive state reads
    e rho e^{h2} >= e [rho e^{h2} + (1-rho) e^{h1}].  The shared term
    e rho e^{h2} is computed once and cancelled exactly; naive addition would
    absorb increments below one ulp of the shared term and misreport
    equality.  What remains per pair is -e (1-rho) e^{h1}, so a satisfying
    pair needs that to be >= 0.
    """
    if not 0.0 < rho < 1.0:
        raise ModelError(f"rho must lie in (0, 1), got {rho}")
    if math.log(rho) <= -1.0:
        raise ModelError("scan only applies to the supercritical regime (log rho > -1)")
    h = np.linspace(-20.0, 20.0, 401)                 # h1 and h2 in steps of 0.1
    shared = math.e * rho * np.exp(h)                  # e rho e^{h2}, per h2
    increment = math.e * (1.0 - rho) * np.exp(h)       # e (1-rho) e^{h1}, per h1
    lhs_minus_rhs = (shared - shared)[None, :] - increment[:, None]
    satisfying = int((lhs_minus_rhs >= 0.0).sum())
    reduction = bool((increment > 0.0).all())
    return PoissonScan(rho=rho, satisfying_pairs=satisfying,
                       total_pairs=h.size**2, reduction_impossible=reduction)
