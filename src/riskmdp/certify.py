"""Certification of solver output against the nested dynamic-programming
equations, plus the analytic two-state chain they are calibrated on.

A candidate (Phi, V) is checked two ways.  First in additive form: Phi must
be a fixed point of the support maximum (the maximizing kernel row for a
linear objective is a point mass), and Phi + V must match the min over
actions of the level-restricted Gibbs value
c(i,u) + log sum_j phat(j|i,u) exp(V_j).  Second in multiplicative form
through Lambda = exp(Phi), Psi = exp(V), where the same equations read as a
minimal eigenvalue problem with averaging under a reweighted ("twisted")
kernel.  The level partition groups states by equal Phi and the restricted
kernel phat keeps only within-level transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError
from .model import MdpModel, union_support

DEFAULT_LEVEL_TOL = 1e-6


class CertificationError(RuntimeError):
    """The certificate cannot be built: the partition is inconsistent with
    the kernel (a state cannot stay in its level under any action)."""


class AmbiguousLevelsError(CertificationError):
    """Two candidate level groupings sit within the clustering tolerance."""


@dataclass(frozen=True)
class LevelPartition:
    """States grouped by equal optimal value, levels strictly increasing."""

    levels: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    def level_of(self) -> dict[int, int]:
        return {i: k for k, members in enumerate(self.levels) for i in members}


@dataclass(frozen=True)
class TwistedResiduals:
    """Residuals of the multiplicative-form equations."""

    top: float                 # |Lambda* - max_i Lambda_i|
    eigen: np.ndarray          # per state, |Lambda_i Psi_i - min_u sum phat e^c Psi|
    averaging: np.ndarray      # per state, |Lambda_i - min over tight actions of twisted avg|
    b_star: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DpCertificate:
    phi_star: np.ndarray
    v_vec: np.ndarray
    partition: LevelPartition
    hat: np.ndarray            # restricted kernel, (actions, s, s)
    residual_dp1: np.ndarray
    residual_dp2: np.ndarray
    lambda_twisted: np.ndarray  # exp(phi_star)
    psi: np.ndarray             # exp(v_vec)
    residual_star: TwistedResiduals
    level_tol: float

    def worst_residual(self) -> float:
        return max(float(self.residual_dp1.max()), float(self.residual_dp2.max()))


def build_partition(phi_star, level_tol: float = DEFAULT_LEVEL_TOL) -> LevelPartition:
    """Cluster states by value: consecutive sorted values join a level when
    they differ by at most level_tol.

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
        if phi[i] - phi[int(current[-1])] <= level_tol:
            current.append(i)
        else:
            levels.append(current)
            current = [i]
    levels.append(current)
    values = []
    for members in levels:
        vals = phi[members]
        if float(vals.max() - vals.min()) > level_tol:
            raise AmbiguousLevelsError(
                f"states {sorted(members)} chain together within {level_tol:g} "
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
    s = model.num_states
    level = partition.level_of()
    if len(level) != s:
        raise ValueError("partition does not cover the state space")
    index = np.array([level[i] for i in range(s)])
    hat = np.where(index[:, None] == index[None, :], model.kernel, 0.0)
    dead = [i for i in range(s) if hat[:, i, :].sum() == 0.0]
    if dead:
        raise CertificationError(
            f"states {dead} cannot remain in their level under any action; "
            "the candidate values are inconsistent with the kernel"
        )
    return hat


def _dp2_rhs(model: MdpModel, hat: np.ndarray, v_vec: np.ndarray):
    """Per (state, action) Gibbs value c(i,u) + log sum_j phat(j|i,u) e^{V_j};
    -inf where the restricted row vanishes (no admissible kernel row)."""
    s, m = model.num_states, model.num_actions
    vals = np.full((s, m), -np.inf)
    for i in range(s):
        for u in range(m):
            row = hat[u, i]
            mask = row > 0.0
            if not mask.any():
                continue
            z = np.log(row[mask]) + v_vec[mask]
            top = z.max()
            vals[i, u] = model.cost[i, u] + top + math.log(np.exp(z - top).sum())
    return vals


def check_dp(model: MdpModel, phi_star, v_vec, tol: float = DEFAULT_LEVEL_TOL):
    """Residuals of the two nested equations at a candidate (Phi, V).

    The first equation's maximizing row is a point mass, so its residual is
    |Phi_i - max over the union support of Phi_j|.  The second equation's
    inner maximum over level-feasible rows is the Gibbs closed form on the
    restricted support; actions whose restricted row vanishes admit no
    feasible row (their constraints are vacuous) and drop out of the min.
    """
    phi = np.asarray(phi_star, dtype=float)
    hat = hat_kernel(model, build_partition(phi, tol))
    return _dp_residuals(model, phi, np.asarray(v_vec, dtype=float), hat)


def _dp_residuals(model: MdpModel, phi: np.ndarray, v: np.ndarray, hat: np.ndarray):
    """check_dp's residuals from an already restricted kernel."""
    s = model.num_states
    residual_dp1 = np.empty(s)
    for i in range(s):
        supp = list(union_support(model, i))
        residual_dp1[i] = abs(phi[i] - float(phi[supp].max()))
    rhs = _dp2_rhs(model, hat, v)
    residual_dp2 = np.empty(s)
    for i in range(s):
        best = float(rhs[i][np.isfinite(rhs[i])].min())
        residual_dp2[i] = abs(phi[i] + v[i] - best)
    return residual_dp1, residual_dp2


def _overflow(x) -> CertificationError:
    return CertificationError(
        f"exp({x:.6g}) overflows; the multiplicative-form residuals cannot "
        "be evaluated in double precision"
    )


def _exp(x: float) -> float:
    """math.exp with overflow reported as a certification failure: past
    about 709 the multiplicative form is out of double range."""
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise _overflow(x) from exc


def _exp_array(x) -> np.ndarray:
    """np.exp under the same overflow rule as _exp, with no RuntimeWarning."""
    with np.errstate(over="raise"):
        try:
            return np.exp(x)
        except FloatingPointError as exc:
            raise _overflow(float(np.max(x))) from exc


def check_twisted(model: MdpModel, certificate: DpCertificate) -> TwistedResiduals:
    """Residuals of the multiplicative-form equations from a certificate.

    Uses Lambda = exp(Phi) and Psi = exp(V): the eigenvalue equation
    Lambda_i Psi_i = min_u sum_j phat(j|i,u) e^{c(i,u)} Psi_j, and the
    averaging equation for Lambda under the twisted kernel
    phat e^c Psi_j / (sum_k phat e^c Psi_k) over the tight actions.
    """
    s, m = model.num_states, model.num_actions
    lam = certificate.lambda_twisted
    psi = certificate.psi
    hat = certificate.hat
    tol = certificate.level_tol
    top = abs(float(_exp_array(certificate.phi_star.max())) - float(lam.max()))
    eigen = np.empty(s)
    averaging = np.empty(s)
    b_star = []
    for i in range(s):
        totals = np.full(m, np.inf)
        for u in range(m):
            denom = float(hat[u, i] @ psi) * _exp(model.cost[i, u])
            if denom > 0.0:
                totals[u] = denom
        finite = np.isfinite(totals)
        if not finite.any():
            raise CertificationError(
                f"state {i}: twisted weights have zero denominator for every action"
            )
        best = float(totals[finite].min())
        eigen[i] = abs(lam[i] * psi[i] - best)
        tight = tuple(int(u) for u in np.flatnonzero(finite & (totals <= best + tol)))
        b_star.append(tight)
        avg_best = math.inf
        for u in tight:
            weights = hat[u, i] * psi * _exp(model.cost[i, u]) / totals[u]
            avg_best = min(avg_best, float(weights @ lam))
        averaging[i] = abs(lam[i] - avg_best)
    return TwistedResiduals(top=top, eigen=eigen, averaging=averaging,
                            b_star=tuple(b_star))


def build_certificate(model: MdpModel, phi_star, v_vec,
                      level_tol: float = DEFAULT_LEVEL_TOL) -> DpCertificate:
    """Assemble the full certificate: partition, restricted kernel, additive
    residuals and multiplicative residuals."""
    phi = np.asarray(phi_star, dtype=float)
    v = np.asarray(v_vec, dtype=float)
    partition = build_partition(phi, level_tol)
    hat = hat_kernel(model, partition)
    residual_dp1, residual_dp2 = _dp_residuals(model, phi, v, hat)
    cert = DpCertificate(
        phi_star=phi, v_vec=v, partition=partition, hat=hat,
        residual_dp1=residual_dp1, residual_dp2=residual_dp2,
        lambda_twisted=_exp_array(phi), psi=_exp_array(v),
        residual_star=TwistedResiduals(
            top=0.0, eigen=np.zeros(len(phi)), averaging=np.zeros(len(phi)),
            b_star=tuple(() for _ in phi)),
        level_tol=level_tol,
    )
    return replace(cert, residual_star=check_twisted(model, cert))


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


def _bias_gain(q: float, rho: float) -> float:
    """1 - KL((q, 1-q) || (rho, 1-rho)) written on the self-loop weight."""
    out = 1.0
    if q > 0.0:
        out -= q * math.log(q / rho)
    if q < 1.0:
        out -= (1.0 - q) * math.log((1.0 - q) / (1.0 - rho))
    return out


def _bias_gain_deriv(q: float, rho: float) -> float:
    return math.log(rho / q) + math.log((1.0 - q) / (1.0 - rho))


def analytic_example(rho: float, bisect_tol: float = 1e-10) -> AnalyticExample:
    """Closed-form solution of the two-state chain.

    For log(rho) > -1 the expensive state keeps all its mass and the value
    there is 1 + log(rho).  For log(rho) < -1 the value is 0 and the
    extracted self-loop weight is the maximizer of B(q)/(1-q), with
    B(q) = 1 - q log(q/rho) - (1-q) log((1-q)/(1-rho)): stationarity of the
    transient fixed point V = max_q [B(q) + q V].  The optimality condition
    d(q) = B(q) + (1-q) B'(q) is strictly decreasing, so it is solved by
    bisection on (0, 1).  The boundary log(rho) = -1 is excluded.
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

    def d(q: float) -> float:
        return _bias_gain(q, rho) + (1.0 - q) * _bias_gain_deriv(q, rho)

    lo, hi = 1e-9, 1.0 - 1e-9
    if not (d(lo) > 0.0 > d(hi)):
        raise RuntimeError(
            f"bisection bracket failed for rho={rho}: d({lo})={d(lo)}, d({hi})={d(hi)}"
        )
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if d(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    q22 = 0.5 * (lo + hi)
    return AnalyticExample(rho=rho, phi_star=np.zeros(2), q22=q22,
                           lambda_bar=0.0, supercritical=False)


@dataclass(frozen=True)
class PoissonScan:
    rho: float
    satisfying_pairs: int
    total_pairs: int
    reduction_impossible: bool


def poisson_insolvability(rho: float, h_lo: float = -20.0, h_hi: float = 20.0,
                          step: float = 0.1) -> PoissonScan:
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
    count = int(round((h_hi - h_lo) / step)) + 1
    h = np.linspace(h_lo, h_hi, count)
    shared = math.e * rho * np.exp(h)                  # e rho e^{h2}, per h2
    increment = math.e * (1.0 - rho) * np.exp(h)       # e (1-rho) e^{h1}, per h1
    lhs_minus_rhs = (shared - shared)[None, :] - increment[:, None]
    satisfying = int((lhs_minus_rhs >= 0.0).sum())
    reduction = bool((increment > 0.0).all())
    return PoissonScan(rho=rho, satisfying_pairs=satisfying,
                       total_pairs=count * count, reduction_impossible=reduction)
