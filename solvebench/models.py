"""Seeded model generators for the benchmark.

These are the benchmark's own copies: the inputs must not change when a
test helper does.  Every model is drawn from its own stream
`default_rng([seed, index])`, so model k of a seed is the same whether a run
generates 10 models or 100.
"""

from __future__ import annotations

import json

import numpy as np


def ring(rng, states: int, actions: int, *, lazy: bool = False,
         jitter: float = 0.005) -> tuple[np.ndarray, np.ndarray]:
    """Two-successor ring: every state moves to i+1 or to one partner.

    The partner is a uniformly drawn other state, or the state itself when
    `lazy`.  Actions share the support and differ by at most `jitter` in
    the split, which keeps pure policies optimal; costs are U[0, 1].
    """
    kernel = np.zeros((actions, states, states))
    for i in range(states):
        nxt = (i + 1) % states
        if lazy:
            partner = i
        else:
            partner = int(rng.choice([j for j in range(states) if j != nxt]))
        lo, hi = sorted((nxt, partner))
        base = rng.uniform(0.25, 0.75)
        for u in range(actions):
            x = base + rng.uniform(-jitter, jitter)
            kernel[u, i, lo] = x
            kernel[u, i, hi] = 1.0 - x
    cost = rng.uniform(0.0, 1.0, size=(states, actions))
    return kernel, cost


def wide(rng, states: int, actions: int, *, successors: int = 4,
         jitter: float = 0.005, floor: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Wide support: i+1 and three other successors per state.

    A Dirichlet(1) base row per state, plus a uniform +-`jitter` per action
    and entry, clipped below at `floor` and renormalized; costs are U[0, 1].
    """
    kernel = np.zeros((actions, states, states))
    for i in range(states):
        nxt = (i + 1) % states
        others = [j for j in range(states) if j != nxt]
        picks = rng.choice(others, size=successors - 1, replace=False)
        support = sorted([nxt, *(int(j) for j in picks)])
        base = rng.dirichlet(np.ones(successors))
        for u in range(actions):
            row = np.maximum(base + rng.uniform(-jitter, jitter, size=successors), floor)
            kernel[u, i, support] = row / row.sum()
    cost = rng.uniform(0.0, 1.0, size=(states, actions))
    return kernel, cost


def trap() -> tuple[np.ndarray, np.ndarray]:
    """The fixed model of the benchmark's one known-failing operation.

    A 4-state lazy ring whose state 0 stays put with probability 0.95 at cost 1,
    against 0.5 and cost 0.1 elsewhere.  The grid's worst-case kernel
    absorbs at state 0, so the other states carry no long-run mass and the
    LP leaves their potentials unpinned; `riskmdp verify` then fails the
    report with a dp2 residual of about 1.0 on a correct value.
    """
    states = 4
    kernel = np.zeros((2, states, states))
    cost = np.zeros((states, 2))
    for i in range(states):
        stay = 0.95 if i == 0 else 0.5
        for u, shift in enumerate((0.0, 0.005)):
            kernel[u, i, i] = stay - shift
            kernel[u, i, (i + 1) % states] = 1.0 - stay + shift
        cost[i] = (1.0, 1.01) if i == 0 else (0.1, 0.12)
    return kernel, cost


FAMILIES = {
    "ring": ring,
    "lazy-ring": lambda rng, s, m: ring(rng, s, m, lazy=True),
    "wide": wide,
}


def generate(family: str, states: int, actions: int, seed: int, index: int):
    """(kernel[u, i, j], cost[i, u]) of model `index` for `seed`."""
    return FAMILIES[family](np.random.default_rng([seed, index]), states, actions)


def to_document(kernel: np.ndarray, cost: np.ndarray) -> dict:
    """The riskmdp model-file structure."""
    m, s, _ = kernel.shape
    actions = [f"a{u}" for u in range(m)]
    return {
        "states": [f"s{i}" for i in range(s)],
        "actions": actions,
        "transitions": {a: kernel[u].tolist() for u, a in enumerate(actions)},
        "costs": cost.tolist(),
    }


def write_model(path, kernel: np.ndarray, cost: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(kernel, cost), fh)
