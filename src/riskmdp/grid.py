"""Dyadic kernel lattices of the approximating linear programs.

At resolution n the maximizer's kernel rows are integers over N = 2^n on
each state's union support.  The lattice is never enumerated: the game's
restricted master starts from its Dirac rows (game.build_grid) and adds the
rows lattice_numerators prices.
"""

from __future__ import annotations

import math

import numpy as np

# The finest resolution whose rows are exact doubles summing to exactly 1, measured
# by pricing random instances at each n: at n = 54 an odd numerator above 2^53 rounds.
MAX_RESOLUTION = 53


def lattice_numerators(z: np.ndarray, resolution: int) -> np.ndarray:
    """Integers k >= 0 with sum(k) = N = 2^resolution maximizing
    sum_j (k_j/N) z_j - (k_j/N) log(k_j/N).

    Separable and concave, so greedy marginal allocation is exact (Gross
    1956; Ibaraki and Katoh, Resource Allocation Problems, 1988): the optimum
    holds the N units of largest gain, ties to the lowest index.  Start from
    floor(N * softmax(z)), the continuous optimum, settle the units it lacks
    or exceeds, then move a unit while the best one out outranks the worst one
    held (each move raises the held set, so the moves end).  Gains are doubles:
    from n = 47 (|z| up to 30; larger |z| lowers it) rounding ties or swaps
    consecutive units, and the result is optimal only to that rounding.
    """
    total = 2**resolution
    z = np.asarray(z, dtype=float)
    gibbs = np.exp(z - z.max())
    k = [int(c) for c in np.floor(total * (gibbs / gibbs.sum()))]
    zs = z.tolist()

    def rank(j, c):  # N times the gain of raising k_j from c, less log N; tie-break
        return (zs[j] if c == 0 else zs[j] - math.log(c + 1) - c * math.log1p(1.0 / c)), -j

    while True:
        up = max(range(len(k)), key=lambda j: rank(j, k[j]))
        held = [j for j in range(len(k)) if k[j]]
        down = min(held, key=lambda j: rank(j, k[j] - 1)) if held else None
        short = total - sum(k)
        if short == 0 and (up == down or rank(up, k[up]) <= rank(down, k[down] - 1)):
            return np.array(k, dtype=np.int64)
        if short >= 0:
            k[up] += 1
        if short <= 0:
            k[down] -= 1
