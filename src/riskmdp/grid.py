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


def row_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's sum of its entries under mask, bit for bit as np.sum of
    those entries alone (zeros between them would regroup numpy's pairwise
    sum), so rows of k terms are summed together; 0 for an empty row."""
    sizes = mask.sum(axis=1)
    sums = np.zeros(x.shape[0])
    for k in set(sizes.tolist()) - {0}:
        sums[sizes == k] = x[sizes == k][mask[sizes == k]].reshape(-1, k).sum(axis=1)
    return sums


def _ranks(z: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """N times the gain of raising each entry of z from its count c, less
    log N: (z - log(c + 1)) - c log1p(1/c), z itself at c = 0, with math's
    logs (numpy's differ in the last bit)."""
    return np.array([x - math.log(c + 1) - c * math.log1p(1.0 / c) if c else x
                     for x, c in zip(z.ravel().tolist(), counts.ravel().tolist())]).reshape(z.shape)


def lattice_numerators(z: np.ndarray, resolution: int) -> np.ndarray:
    """Integers k >= 0 with sum(k) = N = 2^resolution maximizing
    sum_j (k_j/N) z_j - (k_j/N) log(k_j/N), for one row z or for each row of
    a stack, where -inf marks an entry off the row's support (its k_j is 0;
    a row with no finite entry gets zeros).

    Separable and concave, so greedy marginal allocation is exact (Gross
    1956; Ibaraki and Katoh, Resource Allocation Problems, 1988): the optimum
    holds the N units of largest gain, ties to the lowest index.  Start from
    floor(N * softmax(z)), the continuous optimum, give the units it lacks
    to its best raises, drop any it exceeds one by one, then move a unit
    while the best one out outranks the worst one held (each move raises the
    held set, so the moves end).  The rows of a stack take each step at
    once, each as if alone, on their finite entries.  Gains are doubles:
    from n = 47 (|z| up to 30; larger |z| lowers it) rounding ties or swaps
    consecutive units, and the result is optimal only to that rounding.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return lattice_numerators(z[None], resolution)[0]
    total = 2**resolution
    out = np.zeros(z.shape, dtype=np.int64)
    finite = np.isfinite(z)
    at = np.flatnonzero(finite.any(axis=1))
    if not at.size:
        return out
    # each row's finite entries first, in order: the lowest index stays lowest
    cols = np.argsort(~finite[at], axis=1, kind="stable")[:, :finite.sum(axis=1).max()]
    z = z[at[:, None], cols]
    finite = np.isfinite(z)
    gibbs = np.exp(z - z.max(axis=1, keepdims=True))
    k = np.floor(total * (gibbs / row_sums(gibbs, finite)[:, None])).astype(np.int64)
    rows, last = np.arange(z.shape[0]), z.shape[1] - 1
    # the missing units go to the best raises, one each, ties to the lowest
    # index (the loop gives any left over at n ~ 53, where N * softmax rounds)
    fill = np.minimum(total - k.sum(axis=1), finite.sum(axis=1))
    order = np.argsort(-_ranks(z, k), axis=1, kind="stable")
    k[rows[:, None], order] += np.arange(last + 1) < fill[:, None]
    while True:
        gain = _ranks(z, k)                                        # of each unit out
        loss = np.where(k > 0, _ranks(z, np.maximum(k - 1, 0)), np.inf)   # of each held
        up = gain.argmax(axis=1)                                   # ties: lowest index
        down = last - loss[:, ::-1].argmin(axis=1)                 # ties: highest index
        short = total - k.sum(axis=1)
        best, worst = gain[rows, up], loss[rows, down]
        moves = (short != 0) | ((up != down) & ((best > worst) | ((best == worst) & (up < down))))
        if not moves.any():
            out[at[:, None], cols] = k
            return out
        k[rows, up] += moves & (short >= 0)
        k[rows, down] -= moves & (short <= 0)
