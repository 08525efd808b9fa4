"""Domain model for finite controlled Markov chains.

A model is a finite state set, a finite global action set, a controlled
transition kernel p(j|i,u) and a running cost c(i,u).  States carry external
string labels but are indexed 0..s-1 internally; all library computations use
indices and the CLI translates back to labels.

All types are immutable after construction (backing arrays are frozen), so
they are safe for concurrent read access.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ModelError

# Probability rows must sum to 1 within this tolerance.  Rows that fail are
# rejected, never renormalized, so oracle comparisons stay exact.
ROW_SUM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_rows_stochastic(rows: np.ndarray, what: str, context) -> None:
    outside = ~((rows >= 0.0) & (rows <= 1.0))  # NaN included
    if outside.any():
        bad = tuple(np.argwhere(outside)[0].tolist())
        raise ModelError(f"{what}: entry {bad} at {context(bad)} outside [0, 1]")
    sums = rows.sum(axis=-1)
    dev = np.abs(sums - 1.0)
    if np.any(dev > ROW_SUM_TOL):
        bad = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise ModelError(
            f"{what}: row {context(bad)} sums to {float(sums[bad])!r}"
            f" (deviation {dev[bad]:.3e} exceeds {ROW_SUM_TOL:.0e})"
        )


@dataclass(frozen=True)
class MdpModel:
    """Finite controlled Markov chain with running cost.

    kernel has shape (num_actions, s, s) indexed [action, from, to];
    cost has shape (s, num_actions) indexed [state, action].
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    kernel: np.ndarray
    cost: np.ndarray
    # read-only boolean (s, s) masks, set from the kernel: the union support,
    # max_u p(j|i,u) > 0, and I_i, the successors every action at state i
    # reaches, min_u p(j|i,u) > 0
    support: np.ndarray = field(init=False, repr=False, compare=False)
    common: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, m = len(self.states), len(self.actions)
        if s < 1 or m < 1:
            raise ModelError("need at least one state and one action")
        kernel = np.asarray(self.kernel, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        if kernel.shape != (m, s, s):
            raise ModelError(f"kernel shape {kernel.shape} != {(m, s, s)}")
        if cost.shape != (s, m):
            raise ModelError(f"cost shape {cost.shape} != {(s, m)}")
        if not np.all(np.isfinite(cost)):
            raise ModelError("costs must be finite")
        _check_rows_stochastic(
            kernel, "kernel",
            lambda idx: f"(state={self.states[idx[1]]}, action={self.actions[idx[0]]})",
        )
        object.__setattr__(self, "kernel", _frozen(kernel))
        object.__setattr__(self, "cost", _frozen(cost))
        for name, mask in (("support", kernel.max(axis=0) > 0.0),
                           ("common", kernel.min(axis=0) > 0.0)):
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class StationaryPolicy:
    """Randomized state-feedback policy: rows[i] is a distribution over actions."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ModelError("policy rows must be a 2-d array (states x actions)")
        _check_rows_stochastic(rows, "policy", lambda idx: f"state index {idx[0]}")
        object.__setattr__(self, "rows", _frozen(rows))


@dataclass(frozen=True)
class PurePolicy:
    """Deterministic policy: choice[i] is the action index played at state i."""

    choice: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(int(u) for u in self.choice))
        if any(u < 0 for u in self.choice):
            raise ModelError("action indices must be nonnegative")


@dataclass(frozen=True)
class KernelMatrix:
    """A row-stochastic matrix constrained to the model's union support.

    entries[i, j] must be exactly 0 wherever max_u p(j|i,u) = 0; this is the
    membership condition for the maximizing player's strategy class.
    """

    entries: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        support = np.asarray(self.support, dtype=bool)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ModelError("kernel matrix must be square")
        if support.shape != entries.shape:
            raise ModelError("support mask shape mismatch")
        _check_rows_stochastic(entries, "kernel matrix", lambda idx: f"state index {idx[0]}")
        if np.any(entries[~support] != 0.0):
            i, j = np.argwhere((~support) & (entries != 0.0))[0]
            raise ModelError(
                f"kernel matrix has mass at ({i}, {j}) outside the union support"
            )
        object.__setattr__(self, "entries", _frozen(entries))
        sup = support.copy()
        sup.setflags(write=False)
        object.__setattr__(self, "support", sup)

    @classmethod
    def for_model(cls, model: MdpModel, entries: np.ndarray) -> "KernelMatrix":
        return cls(entries, model.support)


def apply_policy(model: MdpModel, policy: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the controlled kernel and cost under a stationary policy.

    Returns (p_v, c_v) with p_v(j|i) = sum_u p(j|i,u) phi(u|i) and
    c_v(i) = sum_u c(i,u) phi(u|i).
    """
    if policy.rows.shape != (model.num_states, model.num_actions):
        raise ModelError(
            f"policy shape {policy.rows.shape} does not match model "
            f"({model.num_states} states, {model.num_actions} actions)"
        )
    p_v = np.einsum("iu,uij->ij", policy.rows, model.kernel)
    c_v = np.einsum("iu,iu->i", policy.rows, model.cost)
    return p_v, c_v


def parse_model(obj) -> MdpModel:
    """Build a validated model from the JSON document structure.

    Expected schema:
      { "states": [...], "actions": [...],
        "transitions": { "<action>": [[p(j|i,u)]] },
        "costs": [[c(i,u)]] }
    """
    if not isinstance(obj, dict):
        raise ModelError("model document must be a JSON object")
    missing = {"states", "actions", "transitions", "costs"} - set(obj)
    if missing:
        raise ModelError(f"model document missing keys: {sorted(missing)}")
    if not (isinstance(obj["states"], list) and isinstance(obj["actions"], list)):
        raise ModelError("states and actions must be JSON arrays")
    if not (obj["states"] and obj["actions"]):
        raise ModelError("need at least one state and one action")
    states, actions = _labels(obj["states"], "state"), _labels(obj["actions"], "action")
    if len(set(states)) != len(states):
        raise ModelError("duplicate state labels")
    if len(set(actions)) != len(actions):
        raise ModelError("duplicate action labels")
    s, m = len(states), len(actions)
    transitions = obj["transitions"]
    if not isinstance(transitions, dict) or set(transitions) != set(actions):
        raise ModelError("transitions must map exactly the declared actions")
    kernel = number_array([transitions[a] for a in actions], (m, s, s), "transitions")
    cost = number_array(obj["costs"], (s, m), "costs")
    return MdpModel(states=states, actions=actions, kernel=kernel, cost=cost)


def _labels(items: list, what: str) -> tuple[str, ...]:
    """Labels from JSON strings and integers (an integer by its digits); any
    other value, a boolean included, is refused rather than spelled by str()."""
    for x in items:
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise ModelError(f"{what} label {json.dumps(x)} is not a JSON string or integer")
    return tuple(map(str, items))


def number_array(data, shape: tuple, what: str) -> np.ndarray:
    """Nested JSON arrays of numbers as a float array of the given shape; an
    entry must be an int or a float, where np.array alone takes "0.5" or true,
    and an int must fit a double."""
    items = [data]
    for depth, size in enumerate(shape):
        if not all(isinstance(x, list) and len(x) == size for x in items):
            raise ModelError(f"{what} shape != {shape}: an entry at depth {depth} "
                             f"is not an array of length {size}")
        items = list(chain.from_iterable(items))
    if found := set(map(type, items)) - {int, float}:
        raise ModelError(f"{what} must be JSON numbers, not {sorted(t.__name__ for t in found)}")
    try:
        return np.array(items, dtype=float).reshape(shape)
    except OverflowError as exc:
        raise ModelError(f"{what}: {exc}") from exc


def read_json(path, what: str):
    """The JSON document in the file at path, before validation; what
    names the file in the ModelError a read or decode failure raises."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # undecodable, an integer past the digit limit, or nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelError(f"cannot read {what} {path}: {exc}") from exc
