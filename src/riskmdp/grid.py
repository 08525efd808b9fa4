"""Dyadic kernel grids for the approximating linear programs.

At resolution n the maximizing player is restricted to kernel rows whose
entries are integers over 2^n.  Rows are generated only on the union support
of each state; off-support mass is infeasible for the game anyway and
dropping it collapses the combinatorics.  Numerators are kept as exact
integers so LP coefficients are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .model import MdpModel, union_support

# Largest per-state row count we are willing to enumerate.
ENUMERATION_GUARD = 10**6


def enumerate_rows(support_size: int, resolution: int) -> list[tuple[int, ...]]:
    """All compositions of 2^resolution into support_size nonnegative parts.

    Returned in ascending lexicographic order; the count is
    C(2^n + k - 1, k - 1) and is guarded before generation.
    """
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    total = 2**resolution
    count = math.comb(total + support_size - 1, support_size - 1)
    if count > ENUMERATION_GUARD:
        raise GuardError(
            f"grid enumeration of {count} rows (support {support_size}, "
            f"resolution {resolution}) exceeds guard {ENUMERATION_GUARD}; "
            "lower the resolution or use constraint generation"
        )
    out: list[tuple[int, ...]] = []
    row = [0] * support_size

    def fill(pos: int, remaining: int) -> None:
        if pos == support_size - 1:
            row[pos] = remaining
            out.append(tuple(row))
            return
        for k in range(remaining + 1):
            row[pos] = k
            fill(pos + 1, remaining - k)

    fill(0, total)
    assert len(out) == count
    return out


@dataclass(frozen=True)
class GridSpec:
    """Per-state dyadic rows at a fixed resolution.

    numerators[i] lists integer tuples over supports[i]; rows[i] is the
    matching (count, s) float matrix with zeros off the support.
    """

    resolution: int
    num_states: int
    supports: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[tuple[int, ...], ...], ...]
    rows: tuple[np.ndarray, ...]

    def row_count(self, i: int) -> int:
        return len(self.numerators[i])

    @property
    def total_rows(self) -> int:
        return sum(len(nums) for nums in self.numerators)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All rows stacked state by state, and the state owning each row."""
        owner = np.repeat(np.arange(self.num_states), [len(r) for r in self.rows])
        return np.concatenate(self.rows), owner


def build_grid(model: MdpModel, resolution: int) -> GridSpec:
    """Enumerate the per-state dyadic action sets at the given resolution.

    The compositions depend only on the support size, so each distinct size
    is enumerated once and shared by the states that have it.
    """
    s = model.num_states
    scale = float(2**resolution)
    by_size = {}
    supports = []
    numerators = []
    rows = []
    for i in range(s):
        supp = union_support(model, i)
        if len(supp) not in by_size:
            nums = tuple(enumerate_rows(len(supp), resolution))
            by_size[len(supp)] = nums, np.asarray(nums, dtype=float) / scale
        nums, fractions = by_size[len(supp)]
        mat = np.zeros((len(nums), s))
        mat[:, supp] = fractions
        mat.setflags(write=False)
        supports.append(supp)
        numerators.append(nums)
        rows.append(mat)
    return GridSpec(
        resolution=resolution,
        num_states=s,
        supports=tuple(supports),
        numerators=tuple(numerators),
        rows=tuple(rows),
    )
