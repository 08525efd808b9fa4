"""Risk-sensitive cost minimization on finite controlled Markov chains.

Solves for the optimal growth rate of the exponentiated cumulative cost by
reformulating the problem as a single-controller zero-sum ergodic game and
solving its linear programs over dyadic kernel grids, with independent
spectral and enumeration oracles plus dynamic-programming certification.
"""

from .certify import (
    AnalyticExample,
    DpCertificate,
    analytic_example,
    build_certificate,
    build_partition,
    hat_kernel,
    poisson_insolvability,
    two_state_model,
)
from .errors import GuardError, ModelError
from .game import (
    ConvergenceReport,
    GameSolution,
    solve_congen,
    solve_sequence,
)
from .grid import lattice_numerators
from .lp import LinearProgram, LpError, LpSolution
from .model import (
    KernelMatrix,
    MdpModel,
    PurePolicy,
    StationaryPolicy,
    apply_policy,
    parse_model,
)
from .oracle import (
    BruteForceResult,
    GrowthRates,
    brute_force_lambda_star,
    growth_rate,
    kl_divergence,
    perron_policy,
    tilde_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
