"""HiGHS as a reference LP solver that shares no code with riskmdp.lp: the
game dual over the fully enumerated grid, solved by scipy's linprog, against
the restricted master's sweep at the same resolution."""

import math

import numpy as np
import pytest

from riskmdp.game import solve_sequence
from riskmdp.lp import LpError

from helpers import (TWO_SUCCESSOR_SHAPES, build_dual, build_grid, corpus, dense, neg_inf_states,
                     random_model, two_successor_model)

linprog = pytest.importorskip("scipy.optimize").linprog

NEG_INF_OUTCOME = "came back infeasible: the game value is -inf"


def _highs(model, n):
    """HiGHS on the grid dual at resolution n: (status, max sum(w)), status
    0 optimal and 2 infeasible."""
    prog = build_dual(model, build_grid(model, n))
    matrix = dense(prog)
    eq = np.array(prog.relations) == "=="
    bounds = [(None, None) if free else (0.0, 0.0) if fixed else (0.0, None)
              for free, fixed in zip(prog.free, prog.fixed)]
    res = linprog(-prog.objective, A_ub=-matrix[~eq], b_ub=-prog.rhs[~eq], A_eq=matrix[eq],
                  b_eq=prog.rhs[eq], bounds=bounds, method="highs")
    return res.status, (-res.fun if res.status == 0 else None)


VALUE_MODELS = ([model for _, model in corpus()]
                + [random_model(seed, 4, 3, kernel_jitter=0.2) for seed in range(10)]
                + [two_successor_model(seed, 3, 2) for seed in range(10)])


@pytest.mark.parametrize("n", [2, 3])
def test_highs_matches_the_sweep_value(n):
    for model in VALUE_MODELS:
        status, value = _highs(model, n)
        assert status == 0
        assert math.isclose(value, solve_sequence(model, n, n).final.value.sum(), rel_tol=1e-9)


@pytest.mark.parametrize("shape", TWO_SUCCESSOR_SHAPES, ids=lambda shape: "s%dm%d" % shape)
def test_highs_is_infeasible_exactly_at_the_neg_inf_outcome(shape):
    # seeds 0-59 at n = 2: HiGHS reports infeasible where the sweep raises
    # the -inf outcome and the graph test flags a state, and only there
    for seed in range(60):
        model = two_successor_model(seed, *shape)
        status, value = _highs(model, 2)
        if neg_inf_states(model).any():
            assert status == 2, seed
            with pytest.raises(LpError, match=NEG_INF_OUTCOME):
                solve_sequence(model, 2, 2)
        else:
            assert status == 0, seed
            assert math.isclose(value, solve_sequence(model, 2, 2).final.value.sum(),
                                rel_tol=1e-9)
