import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp.errors import ModelError
from riskmdp.model import (
    KernelMatrix,
    MdpModel,
    PurePolicy,
    StationaryPolicy,
    apply_policy,
    parse_model,
)

from helpers import as_stationary, load_model, random_model, uniform_policy, union_support

EX41 = {
    "states": ["1", "2"],
    "actions": ["a"],
    "transitions": {"a": [[1.0, 0.0], [0.19999999999999996, 0.8]]},
    "costs": [[0.0], [1.0]],
}


def test_load_two_state_chain(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(EX41))
    model = load_model(path)
    assert model.num_states == 2
    assert model.num_actions == 1
    np.testing.assert_allclose(model.kernel[0], [[1.0, 0.0], [0.2, 0.8]])
    np.testing.assert_allclose(model.cost, [[0.0], [1.0]])


def test_row_sum_violation_reports_location(tmp_path):
    bad = dict(EX41, transitions={"a": [[0.9, 0.0], [0.2, 0.8]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ModelError, match=r"state=1.*action=a|row"):
        load_model(path)


def test_row_errors_print_plain_indices():
    # numpy scalars would print as np.int64(1) and np.float64(0.9)
    kernel = np.array([[[1.0, 0.0], [0.2, 0.8]], [[1.0, 0.0], [-0.5, 1.5]]])
    with pytest.raises(ModelError) as exc:
        MdpModel(("1", "2"), ("a", "b"), kernel, np.zeros((2, 2)))
    assert str(exc.value) == "kernel: entry (1, 1, 0) at (state=2, action=b) outside [0, 1]"
    with pytest.raises(ModelError) as exc:
        StationaryPolicy([[1.0, 0.0], [0.5, 0.4]])
    assert str(exc.value) == ("policy: row state index 1 sums to 0.9"
                              " (deviation 1.000e-01 exceeds 1e-12)")


def test_one_state_degenerate_model_is_valid():
    model = parse_model({"states": ["only"], "actions": ["a"],
                         "transitions": {"a": [[1.0]]}, "costs": [[0.0]]})
    assert model.num_states == 1
    assert union_support(model, 0) == (0,)


def test_parse_errors():
    with pytest.raises(ModelError):
        parse_model({"states": ["a"], "actions": ["u"], "transitions": {}})
    with pytest.raises(ModelError):
        parse_model({"states": ["a"], "actions": ["u"],
                     "transitions": {"u": [[1.0]]}, "costs": [[math.inf]]})
    with pytest.raises(ModelError):
        parse_model(dict(EX41, transitions={"b": EX41["transitions"]["a"]}))
    with pytest.raises(ModelError):
        load_model("/nonexistent/path.json")


def test_integer_labels_read_as_their_digits():
    model = parse_model(dict(EX41, states=[1, 2], actions=[0],
                             transitions={"0": EX41["transitions"]["a"]}))
    assert model.states == ("1", "2") and model.actions == ("0",)


def test_negative_kernel_entry_rejected():
    with pytest.raises(ModelError, match="outside"):
        parse_model(dict(EX41, transitions={"a": [[1.1, -0.1], [0.2, 0.8]]}))


def test_apply_pure_policy_selects_action_rows():
    model = random_model(7, 3, 2)
    pure = PurePolicy((1, 0, 1))
    kernel, cost = apply_policy(model, as_stationary(pure, 2))
    for i, u in enumerate(pure.choice):
        np.testing.assert_array_equal(kernel[i], model.kernel[u, i])
        assert cost[i] == model.cost[i, u]


def test_apply_uniform_policy_averages_rows():
    model = random_model(8, 2, 2)
    kernel, cost = apply_policy(model, uniform_policy(2, 2))
    np.testing.assert_allclose(kernel, model.kernel.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(cost, model.cost.mean(axis=1), atol=1e-15)


def test_apply_policy_two_state_chain():
    model = parse_model(EX41)
    kernel, cost = apply_policy(model, StationaryPolicy(np.ones((2, 1))))
    np.testing.assert_allclose(kernel, [[1.0, 0.0], [0.2, 0.8]])
    np.testing.assert_allclose(cost, [0.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_apply_policy_affine_in_policy(seed, weight):
    model = random_model(seed % 100 + 1, 3, 2)
    rng = np.random.default_rng(seed)
    rows_a = rng.dirichlet(np.ones(2), size=3)
    rows_b = rng.dirichlet(np.ones(2), size=3)
    mixed = StationaryPolicy(weight * rows_a + (1 - weight) * rows_b)
    k_mix, c_mix = apply_policy(model, mixed)
    k_a, c_a = apply_policy(model, StationaryPolicy(rows_a))
    k_b, c_b = apply_policy(model, StationaryPolicy(rows_b))
    np.testing.assert_allclose(k_mix, weight * k_a + (1 - weight) * k_b, atol=1e-12)
    np.testing.assert_allclose(c_mix, weight * c_a + (1 - weight) * c_b, atol=1e-12)


def test_apply_policy_dimension_mismatch():
    model = random_model(9, 2, 2)
    with pytest.raises(ModelError):
        apply_policy(model, uniform_policy(3, 2))


def test_union_support_two_state_chain():
    model = parse_model(EX41)
    assert union_support(model, 0) == (0,)
    assert union_support(model, 1) == (0, 1)
    with pytest.raises(IndexError):
        union_support(model, 5)


def test_union_support_positive_kernel_is_full():
    model = MdpModel(states=("x", "y"), actions=("a",),
                     kernel=np.array([[[0.5, 0.5], [0.25, 0.75]]]),
                     cost=np.zeros((2, 1)))
    assert union_support(model, 0) == (0, 1)
    assert union_support(model, 1) == (0, 1)


def test_union_support_is_union_of_per_action_supports():
    model = random_model(11, 4, 3)
    for i in range(4):
        per_action = set()
        for u in range(3):
            per_action |= set(np.flatnonzero(model.kernel[u, i]))
        assert set(union_support(model, i)) == per_action


def test_kernel_matrix_support_invariant():
    model = parse_model(EX41)
    KernelMatrix.for_model(model, np.array([[1.0, 0.0], [0.3, 0.7]]))
    with pytest.raises(ModelError, match="outside the union support"):
        KernelMatrix.for_model(model, np.array([[0.5, 0.5], [0.3, 0.7]]))
    with pytest.raises(ModelError):
        KernelMatrix.for_model(model, np.array([[1.0, 0.0], [0.3, 0.6]]))


def test_policy_row_validation():
    with pytest.raises(ModelError):
        StationaryPolicy(np.array([[0.5, 0.4]]))
    with pytest.raises(ModelError):
        StationaryPolicy(np.array([[1.2, -0.2]]))


def test_types_are_frozen():
    model = parse_model(EX41)
    with pytest.raises(ValueError):
        model.kernel[0, 0, 0] = 0.5
    policy = uniform_policy(2, 1)
    with pytest.raises(ValueError):
        policy.rows[0, 0] = 0.0
