import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskmdp
from riskmdp import cli
from riskmdp.cli import REPORT_VERSION, canonical_json, main
from riskmdp.grid import MAX_RESOLUTION
from riskmdp.model import MdpModel

from helpers import pure_policy, random_model, structured_model


def write_two_state(tmp_path, rho=0.8, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "states": ["1", "2"], "actions": ["a"],
        "transitions": {"a": [[1.0, 0.0], [1.0 - rho, rho]]},
        "costs": [[0.0], [1.0]],
    }))
    return path


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "states": list(model.states),
        "actions": list(model.actions),
        "transitions": {a: model.kernel[u].tolist()
                        for u, a in enumerate(model.actions)},
        "costs": model.cost.tolist(),
    }))
    return path


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def test_solve_two_state_chain(tmp_path, capsys):
    model = write_two_state(tmp_path)
    out = tmp_path / "report.json"
    code = main(["solve", "--model", str(model), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lambda_bar = 0.776856" in stdout
    report = json.loads(out.read_text())
    assert report["report_version"] == 7
    assert abs(report["lambda_bar"] - (1 + math.log(0.8))) <= 2e-2
    assert report["q_star"][1][1] >= 1 - 1e-6
    assert report["oracle"]["gap"] <= 1e-6 + 2e-2
    assert max(report["certificate"]["residual_dp2"]) <= 1e-3
    # oracle gap field is recomputable from the report's own numbers
    assert report["oracle"]["gap"] == pytest.approx(
        abs(report["lambda_bar"] - report["oracle"]["value"]))


def test_solve_reports_are_deterministic(tmp_path):
    model = write_two_state(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["solve", "--model", str(model), "--out", str(out1)]) == 0
    assert main(["solve", "--model", str(model), "--out", str(out2)]) == 0
    a = strip_timings(json.loads(out1.read_text()))
    b = strip_timings(json.loads(out2.read_text()))
    a["command"][a["command"].index(str(out1))] = "OUT"
    b["command"][b["command"].index(str(out2))] = "OUT"
    assert json.dumps(a) == json.dumps(b)


def test_solve_bad_model_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "states": ["1"], "actions": ["a"],
        "transitions": {"a": [[0.9]]}, "costs": [[0.0]],
    }))
    assert main(["solve", "--model", str(path)]) == 2
    assert "model error" in capsys.readouterr().err


def write_full_support(tmp_path):
    rng = np.random.default_rng(0)
    s = 5
    kernel = rng.dirichlet(np.ones(s), size=(1, s))  # full 5-state supports
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in range(s)], "actions": ["a"],
        "transitions": {"a": kernel[0].tolist()},
        "costs": [[0.0]] * s,
    }))
    return path


def test_solve_guard_violation_exit_3(tmp_path, capsys):
    # past the finest resolution whose lattice rows are exact doubles
    path = write_full_support(tmp_path)
    n = str(MAX_RESOLUTION + 1)
    assert main(["solve", "--model", str(path), "--n-start", n, "--n-max", n]) == 3
    assert "guard" in capsys.readouterr().err
    # from the default --n-start as well: the flags are consistent, only too fine
    assert main(["solve", "--model", str(path), "--n-max", n]) == 3
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--n-start", "9"], ["--n-start", "-1"],
                                   ["--n-start", "5", "--n-max", "4"]])
def test_solve_bad_n_start_is_a_usage_error(tmp_path, capsys, flags):
    # above --n-max (default 8) or negative: argparse's usage exit 2, no traceback
    path = write_two_state(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", str(path), *flags])
    assert exc.value.code == 2
    assert "--n-start" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--inner-tol", "nan"), ("solve", "--inner-tol", "inf"),
    ("solve", "--inner-tol", "-1e-6"), ("solve", "--stop-tol", "nan"),
    ("solve", "--stop-tol", "-inf"), ("solve", "--stop-tol", "-1e-4"),
    ("solve", "--max-rounds", "0"), ("solve", "--max-rounds", "-1"),
    ("verify", "--tol", "nan"), ("verify", "--tol", "inf"), ("verify", "--tol", "-1e-3"),
])
def test_bad_tolerance_or_round_budget_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         command, flag, value):
    # rejected before any work (a NaN --inner-tol used to surface after the
    # whole solve, as a traceback from the report's JSON encoder, and
    # --max-rounds 0 meant no limit): argparse's usage exit 2
    from riskmdp import cli, game

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(game, "solve_sequence", no_work)
    monkeypatch.setattr(game, "solve_congen", no_work)
    monkeypatch.setattr(cli, "read_json", no_work)
    path = str(write_two_state(tmp_path))
    argv = (["solve", "--model", path, "--method", "congen"] if command == "solve"
            else ["verify", "--model", path, "--solution", path])
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_zero_tolerances_and_one_round_are_accepted(tmp_path):
    path = write_two_state(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(path), "--method", "congen", "--inner-tol", "0",
                 "--max-rounds", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rounds"] == 1
    assert main(["solve", "--model", str(path), "--stop-tol", "0", "--n-max", "3",
                 "--out", str(out)]) == 0
    assert main(["verify", "--model", str(path), "--solution", str(out), "--tol", "0"]) in (0, 5)


def test_solve_full_support_past_the_old_enumeration_guard(tmp_path):
    # 2 * 5 * C(260, 4) = 1,860,435,850 implied rows at n=8, which the
    # restricted master prices without building
    path = write_full_support(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(path), "--n-start", "8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["resolutions"] == [8]
    assert report["num_constraints"] == 2 * 5 * math.comb(2**8 + 4, 4)
    # the n=8 lattice value sits about 1e-3 below the exact 0
    assert main(["verify", "--model", str(path), "--solution", str(out), "--tol", "1e-2"]) == 0


def test_solve_methods_agree(tmp_path):
    model = write_model(tmp_path, random_model(71, 3, 2))
    out_g, out_c = tmp_path / "g.json", tmp_path / "c.json"
    assert main(["solve", "--model", str(model), "--out", str(out_g)]) == 0
    assert main(["solve", "--model", str(model), "--method", "congen",
                 "--out", str(out_c)]) == 0
    grid = json.loads(out_g.read_text())
    congen = json.loads(out_c.read_text())
    assert congen["certified"]
    assert abs(grid["lambda_bar"] - congen["lambda_bar"]) <= 1e-3


def write_costly(tmp_path, costs):
    # the kernels shared by the large-cost models; exp(cost) is out of double
    # range past about 709 and below about -745
    path = tmp_path / "costly.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["x", "y"],
        "transitions": {"x": [[0.6, 0.4], [0.3, 0.7]], "y": [[0.5, 0.5], [0.2, 0.8]]},
        "costs": costs,
    }))
    return path


@pytest.mark.parametrize("method", ["grid", "congen"])
def test_large_costs_give_a_report_not_a_traceback(tmp_path, capsys, recwarn, method):
    path = write_costly(tmp_path, [[790.0, 800.0], [795.0, 798.0]])
    out = tmp_path / "report.json"
    code = main(["solve", "--model", str(path), "--method", method, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert "error" not in report["certificate"]
    # the grid's value sits about 1.1e-3 below the exact one at n=8, so its
    # report is judged at a tolerance above that
    tol = "1e-3" if method == "congen" else "1e-2"
    assert main(["verify", "--model", str(path), "--solution", str(out), "--tol", tol]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "RuntimeWarning" not in captured.err
    assert len(recwarn) == 0


def test_costs_below_the_exp_range_certify_under_congen(tmp_path, capsys, recwarn):
    path = write_costly(tmp_path, [[-810.0, -800.0], [-805.0, -802.0]])
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(path), "--method", "congen", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["oracle"]["gap"] <= 1e-7
    assert main(["verify", "--model", str(path), "--solution", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "RuntimeWarning" not in captured.err
    assert len(recwarn) == 0


def test_verify_rejects_potentials_out_of_double_range(tmp_path, capsys, recwarn):
    # one level, so state 1's Gibbs value carries e^{1e308} from state 0 and
    # the relative eigenvalue residual is not finite: a certificate failure,
    # not a report that cannot be written
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["x"],
        "transitions": {"x": [[0.5, 0.5], [0.5, 0.5]]}, "costs": [[0.0], [0.0]],
    }))
    solution = tmp_path / "report.json"
    solution.write_text(json.dumps({"phi_star": [0.0, 0.0], "potentials": [1e308, 0.0]}))
    out = tmp_path / "verify.json"
    assert main(["verify", "--model", str(path), "--solution", str(solution),
                 "--out", str(out)]) == 5
    assert "not finite" in json.loads(out.read_text())["error"]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert len(recwarn) == 0


def test_oracle_uncontrolled(tmp_path, capsys):
    model = write_two_state(tmp_path)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--model", str(model), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    np.testing.assert_allclose(report["per_state"], [0.0, 1 + math.log(0.8)],
                               atol=1e-6)


def test_oracle_policy_file_matches_growth_rate(tmp_path):
    m = random_model(72, 3, 2)
    model = write_model(tmp_path, m)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": {"s0": "a1", "s1": "a0", "s2": "a1"}}))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--model", str(model), "--policy", str(policy),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    from riskmdp.oracle import growth_rate
    rates = growth_rate(m, pure_policy([1, 0, 1], 2))
    np.testing.assert_allclose(report["per_state"], rates.lam, atol=1e-12)


def test_oracle_randomized_policy_file_matches_growth_rate(tmp_path):
    m = random_model(72, 3, 2)
    model = write_model(tmp_path, m)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": {
        "s0": {"a0": 0.25, "a1": 0.75}, "s1": {"a0": 1}, "s2": {"a1": 0.5, "a0": 0.5}}}))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--model", str(model), "--policy", str(policy),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    from riskmdp.model import StationaryPolicy
    from riskmdp.oracle import growth_rate
    rates = growth_rate(m, StationaryPolicy([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))
    assert report["per_state"] == rates.lam.tolist()
    assert report["lambda_max"] == rates.lambda_max


TWO_STATE = {"states": ["1", "2"], "actions": ["a"],
             "transitions": {"a": [[1.0, 0.0], [0.2, 0.8]]}, "costs": [[0.0], [1.0]]}
DEEP = "[" * 200_000  # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize("model, policy, message", [
    ({"states": 5}, None, "states and actions must be JSON arrays"),
    ({"actions": 3}, None, "states and actions must be JSON arrays"),
    ({"states": "12"}, None, "states and actions must be JSON arrays"),
    ({"transitions": {"a": [[math.nan, 1.0], [0.2, 0.8]]}}, None,
     "kernel: entry (0, 0, 0) at (state=1, action=a) outside [0, 1]"),
    ({}, {"1": {"a": "x"}, "2": "a"}, "weight 'x' of 'a' at state '1' is not a number"),
    ({}, {"1": {"a": None}, "2": "a"}, "weight None of 'a' at state '1' is not a number"),
    ({}, {"1": {"a": [1]}, "2": "a"}, "weight [1] of 'a' at state '1' is not a number"),
    ({}, {"1": {"a": math.nan}, "2": "a"}, "policy: entry (0, 0) at state index 0 outside [0, 1]"),
    ({}, {"1": "a", "2": "a", "3": "a"}, "policy file names state '3', which the model lacks"),
    # np.array(..., dtype=float) reads "0.5" as 0.5 and true as 1.0
    ({"transitions": {"a": [["1.0", 0.0], [0.2, 0.8]]}}, None,
     "transitions must be JSON numbers, not ['str']"),
    ({"transitions": {"a": [[True, False], [0.2, 0.8]]}}, None,
     "transitions must be JSON numbers, not ['bool']"),
    ({"costs": [["0.0"], [1.0]]}, None, "costs must be JSON numbers, not ['str']"),
    ({}, {"1": {"a": True}, "2": "a"}, "weight True of 'a' at state '1' is not a number"),
    ([TWO_STATE], None, "model document must be a JSON object"),
    ({"states": ["1", "1"]}, None, "duplicate state labels"),
    ({"states": [1, "1"]}, None, "duplicate state labels"),
    ({"actions": ["a", "a"]}, None, "duplicate action labels"),
    ({"transitions": {"a": [[1.0, 0.0], [0.2]]}}, None,
     "transitions shape != (1, 2, 2): an entry at depth 2 is not an array of length 2"),
    ({"costs": [[0], [10**400]]}, None, "costs: int too large to convert to float"),
    ({}, {"1": {"a": 10**400}, "2": "a"},
     "weight of 'a' at state '1': int too large to convert to float"),
    ({"states": []}, None, "need at least one state and one action"),
    ({"actions": []}, None, "need at least one state and one action"),
    # str() would read these as "None", "True" and "100.0"
    ({"states": [None, [1]]}, None, "state label null is not a JSON string or integer"),
    ({"states": ["1", [1]]}, None, "state label [1] is not a JSON string or integer"),
    ({"actions": [True], "transitions": {"True": [[1.0, 0.0], [0.2, 0.8]]}}, None,
     "action label true is not a JSON string or integer"),
    ({"states": [1e2, "2"]}, None, "state label 100.0 is not a JSON string or integer"),
    (DEEP, None, "cannot read model file"),
    ({}, DEEP, "cannot read policy file"),
], ids=["int-states", "int-actions", "string-states", "nan-kernel", "string-weight",
        "null-weight", "list-weight", "nan-weight", "unknown-state", "string-kernel-entry",
        "bool-kernel-entry", "string-cost", "bool-weight", "top-level-array",
        "duplicate-states", "duplicate-int-and-string-states", "duplicate-actions",
        "ragged-transition-row", "int-cost-past-double-range", "int-weight-past-double-range",
        "no-states", "no-actions", "null-state-label", "list-state-label", "bool-action-label",
        "float-state-label", "deep-nested-model", "deep-nested-policy"])
def test_malformed_input_files_exit_2(tmp_path, capsys, model, policy, message):
    path = tmp_path / "model.json"
    # a dict overrides keys of the two-state model, a list is the whole
    # document, and so is a str, as the file's text
    path.write_text(model if isinstance(model, str) else
                    json.dumps({**TWO_STATE, **model} if isinstance(model, dict) else model))
    argv = ["solve", "--model", str(path)]
    if policy is not None:
        argv = ["oracle", "--model", str(path), "--policy", str(tmp_path / "policy.json")]
        (tmp_path / "policy.json").write_text(
            policy if isinstance(policy, str) else json.dumps({"policy": policy}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", ["solve", "oracle", "verify", "example"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    model = write_two_state(tmp_path)
    report = tmp_path / "report.json"
    assert main(["solve", "--model", str(model), "--out", str(report)]) == 0
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    argv = {"solve": ["solve", "--model", str(model)],
            "oracle": ["oracle", "--model", str(model)],
            "verify": ["verify", "--model", str(model), "--solution", str(report)],
            "example": ["example", "--rho", "0.8"]}[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"model error: cannot write report {out}: " in err
    assert "Traceback" not in err


def test_value_drop_in_the_sweep_exits_4(tmp_path, capsys, value_drop):
    assert main(["solve", "--model", str(write_two_state(tmp_path))]) == 4
    err = capsys.readouterr().err
    assert "solver failure: value decreased by 1.000e-03 from resolution 2 to 3" in err
    assert "Traceback" not in err


def test_solve_past_the_oracle_guard_writes_a_null_oracle(tmp_path):
    # 2^21 pure policies exceed the enumeration guard: the solve reports no
    # oracle block, and its report still verifies
    model = write_model(tmp_path, random_model(1, 21, 2))
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(model), "--method", "congen", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["oracle"] is None
    assert main(["verify", "--model", str(model), "--solution", str(out)]) == 0


def test_potentials_stay_unshifted_when_the_levels_are_ambiguous():
    # 0, 8e-7 and 1.6e-6 chain together within LEVEL_TOL = 1e-6 but spread wider
    v = [3.0, 1.0, 2.0]
    got = cli._normalized_potentials(np.array([0.0, 8e-7, 1.6e-6]), v)
    assert got.tolist() == v
    assert cli._normalized_potentials(np.zeros(3), v).tolist() == [2.0, 0.0, 1.0]


def test_oracle_guard_exit_3(tmp_path):
    from riskmdp.model import MdpModel
    rng = np.random.default_rng(1)
    s, m = 7, 8  # 8^7 pure policies exceeds the enumeration guard
    kernel = np.stack([rng.dirichlet(np.ones(2), size=s) for _ in range(m)])
    full = np.zeros((m, s, s))
    full[:, :, :2] = kernel
    model = write_model(tmp_path, MdpModel(
        states=tuple(map(str, range(s))), actions=tuple(map(str, range(m))),
        kernel=full, cost=np.zeros((s, m))))
    assert main(["oracle", "--model", str(model)]) == 3


@pytest.mark.parametrize("phi, v", [([0.0, 0.0], [0.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])],
                         ids=["short-potentials", "extra-state"])
def test_verify_rejects_reports_of_another_size(tmp_path, capsys, phi, v):
    # a one-entry potentials vector must not broadcast over the states
    model = write_two_state(tmp_path)
    solution = tmp_path / "report.json"
    solution.write_text(json.dumps({"phi_star": phi, "potentials": v}))
    assert main(["verify", "--model", str(model), "--solution", str(solution)]) == 2
    err = capsys.readouterr().err
    assert "cannot read solution report" in err
    assert "Traceback" not in err


def test_verify_rejects_a_deeply_nested_report(tmp_path, capsys):
    model = write_two_state(tmp_path)
    solution = tmp_path / "report.json"
    solution.write_text(DEEP)
    assert main(["verify", "--model", str(model), "--solution", str(solution)]) == 2
    err = capsys.readouterr().err
    assert f"model error: cannot read solution report {solution}: maximum recursion" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"phi_star": [NaN, 0.0], "potentials": [0.0, 0.0]}',
    '{"phi_star": [0.0, 0.0], "potentials": [0.0, Infinity]}',
], ids=["nan-phi", "infinite-potential"])
def test_verify_rejects_nonfinite_reports(tmp_path, capsys, text):
    # Python's json reads NaN and Infinity; they are not values of a report
    model = write_two_state(tmp_path)
    solution = tmp_path / "report.json"
    solution.write_text(text)
    assert main(["verify", "--model", str(model), "--solution", str(solution)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("phi, v, found", [(["0.5", 0.0], [0.0, 0.0], "phi_star must be "
                                              "JSON numbers, not ['str']"),
                                             ([0.0, 0.0], [True, 0.0], "potentials must be "
                                              "JSON numbers, not ['bool']")],
                         ids=["string-phi", "bool-potential"])
def test_verify_rejects_reports_of_non_numbers(tmp_path, capsys, phi, v, found):
    model = write_two_state(tmp_path)
    solution = tmp_path / "report.json"
    solution.write_text(json.dumps({"phi_star": phi, "potentials": v}))
    assert main(["verify", "--model", str(model), "--solution", str(solution)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read solution report {solution}: {found}" in err
    assert "Traceback" not in err


def test_verify_roundtrip_and_perturbation(tmp_path, capsys):
    model = write_two_state(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    assert main(["verify", "--model", str(model), "--solution", str(out)]) == 0

    report = json.loads(out.read_text())
    report["phi_star"][1] += 0.1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    assert main(["verify", "--model", str(model), "--solution", str(tampered)]) == 5
    # a huge tolerance accepts anything feasible
    assert main(["verify", "--model", str(model), "--solution", str(tampered),
                 "--tol", "10"]) == 0


def test_verify_accepts_version_1_reports(tmp_path):
    # verify reads only phi_star and potentials, which every version kept;
    # version 2 dropped feasibility_samples, version 3 flagged_states,
    # version 4 twisted_top (and made twisted_eigen/averaging relative) and
    # version 5 added the oracle's bracket
    model = write_two_state(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    v3 = dict(report, report_version=3,
              certificate=dict(report["certificate"], twisted_top=0.0))
    v2 = dict(v3, report_version=2, flagged_states=[])
    v1 = dict(v2, report_version=1, feasibility_samples=50)
    for version, legacy_report in ((3, v3), (2, v2), (1, v1)):
        legacy = tmp_path / f"legacy-{version}.json"
        legacy.write_text(json.dumps(legacy_report))
        assert main(["verify", "--model", str(model), "--solution", str(legacy)]) == 0


TWO_ACTIONS = {"states": ["1", "2"], "actions": ["a", "b"],
               "transitions": {"a": [[1.0, 0.0], [0.2, 0.8]], "b": [[0.5, 0.5], [0.0, 1.0]]},
               "costs": [[0.0, 0.5], [1.0, 2.0]]}


def _file_digest(tmp_path, text: str) -> str:
    """model_digest of the report of an oracle call on a model file holding text."""
    path, out = tmp_path / "digest-model.json", tmp_path / "digest-report.json"
    path.write_text(text)
    assert main(["oracle", "--model", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())["model_digest"]


@pytest.mark.parametrize("text", [
    json.dumps(TWO_ACTIONS, indent=3),
    json.dumps({k: TWO_ACTIONS[k] for k in ("costs", "transitions", "actions", "states")}),
    json.dumps({**TWO_ACTIONS, "transitions": {"b": [[0.5, 0.5], [0, 1]],
                                               "a": [[1, 0], [0.2, 0.8]]}}),
    json.dumps({**TWO_ACTIONS, "costs": [[0, 0.5], [1, 2]]}),
], ids=["whitespace", "key-order", "int-kernel-entries", "int-costs"])
def test_model_digest_ignores_the_spelling_of_the_file(tmp_path, text):
    assert _file_digest(tmp_path, text) == _file_digest(tmp_path, json.dumps(TWO_ACTIONS))


@pytest.mark.parametrize("change", [
    {"transitions": {**TWO_ACTIONS["transitions"],
                     "a": [[1.0, 0.0], [float(np.nextafter(0.2, 1.0)), 0.8]]}},
    {"costs": [[0.0, 0.5], [1.0, 2.5]]},
    {"states": ["1", "3"]},
    # the same chain with its states, or its actions, listed in the other order
    {"states": ["2", "1"], "transitions": {"a": [[0.8, 0.2], [0.0, 1.0]],
                                           "b": [[1.0, 0.0], [0.5, 0.5]]},
     "costs": [[1.0, 2.0], [0.0, 0.5]]},
    {"actions": ["b", "a"], "costs": [[0.5, 0.0], [2.0, 1.0]]},
], ids=["kernel-entry-one-ulp", "one-cost", "renamed-state", "reordered-states",
        "reordered-actions"])
def test_model_digest_covers_names_order_and_every_double(tmp_path, change):
    assert (_file_digest(tmp_path, json.dumps({**TWO_ACTIONS, **change}))
            != _file_digest(tmp_path, json.dumps(TWO_ACTIONS)))


def test_verify_reports_whether_the_report_is_of_this_model(tmp_path):
    model = write_two_state(tmp_path)
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps({**json.loads(model.read_text()), "states": ["x", "y"]}))
    out = tmp_path / "report.json"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # the version-6 digest: the model document re-encoded with sorted keys
    v6 = tmp_path / "v6.json"
    v6.write_text(json.dumps(dict(report, report_version=6, model_digest=hashlib.sha256(
        json.dumps(json.loads(model.read_text()), sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest())))
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(dict(report, phi_star=[0.0, 0.1])))
    for model_file, solution, code, matches in ((model, out, 0, True),
                                                (renamed, out, 0, False),
                                                (model, v6, 0, False),
                                                (model, tampered, 5, True),
                                                (renamed, tampered, 5, False)):
        checked = tmp_path / "verify.json"
        assert main(["verify", "--model", str(model_file), "--solution", str(solution),
                     "--out", str(checked)]) == code
        assert json.loads(checked.read_text())["model_digest_matches"] is matches


def test_non_utf8_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    model = write_two_state(tmp_path)
    for argv in (["solve", "--model", str(bad)],
                 ["oracle", "--model", str(bad)],
                 ["verify", "--model", str(bad), "--solution", str(bad)],
                 ["oracle", "--model", str(model), "--policy", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "model error: cannot read" in err
        assert "Traceback" not in err


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of over 4,300 digits
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TWO_STATE).replace("[1.0]]", "[" + "1" * 5000 + "]]"))
    assert main(["solve", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"model error: cannot read model file {path}: Exceeds the limit" in err
    assert "Traceback" not in err


# Top-level keys of each report in order, with the keys of nested objects.
# A change here is a change of report format: bump cli.REPORT_VERSION with it.
REPORT_LAYOUTS = {
    "solve-grid": [
        "report_version", "command", "model_digest", "method", "resolutions",
        "rounds", "beta_trace", "stopping_reason", "feasibility_violation", "lambda_bar",
        "phi_star", "potentials", "q_star", ("v_star", ["1", "2"]), "minimizer",
        "dual_w", "duality_gap", "num_constraints",
        ("oracle", ["value", "bracket", "per_state", "argmin", "converged", "gap"]),
        ("certificate", ["levels", "level_values", "residual_dp1", "residual_dp2",
                         "twisted_eigen", "twisted_averaging"]),
        ("timings", ["solve", "oracle", "certify"]),
    ],
    "solve-congen": [
        "report_version", "command", "model_digest", "method", "rounds",
        "certified", "inner_tol", "lambda_bar",
        "phi_star", "potentials", "q_star", ("v_star", ["1", "2"]), "minimizer",
        "dual_w", "duality_gap", "num_constraints",
        ("oracle", ["value", "bracket", "per_state", "argmin", "converged", "gap"]),
        ("certificate", ["levels", "level_values", "residual_dp1", "residual_dp2",
                         "twisted_eigen", "twisted_averaging"]),
        ("timings", ["solve", "oracle", "certify"]),
    ],
    "oracle": [
        "report_version", "command", "model_digest", "mode", "value", "bracket",
        "per_state", ("argmin", ["1", "2"]), "converged", ("timings", ["oracle"]),
    ],
    "oracle-policy": [
        "report_version", "command", "model_digest", "mode", "policy_file",
        "per_state", "lambda_max", "iterations", "converged", ("timings", ["oracle"]),
    ],
    "verify": [
        "report_version", "command", "model_digest", "model_digest_matches",
        "tolerance", "passed",
        ("worst", ["check", "state", "residual"]),
        "levels", "level_values", "residual_dp1", "residual_dp2",
        "twisted_eigen", "twisted_averaging", ("timings", ["certify"]),
    ],
}


def test_report_layouts_are_pinned_to_the_version(tmp_path):
    assert REPORT_VERSION == 7
    model = write_two_state(tmp_path)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": {"1": "a", "2": "a"}}))
    solve = ["solve", "--model", str(model)]
    runs = {
        "solve-grid": solve,
        "solve-congen": solve + ["--method", "congen"],
        "oracle": ["oracle", "--model", str(model)],
        "oracle-policy": ["oracle", "--model", str(model), "--policy", str(policy)],
        "verify": ["verify", "--model", str(model),
                   "--solution", str(tmp_path / "solve-grid.json")],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        layout = [(k, list(v)) if isinstance(v, dict) else k for k, v in report.items()]
        assert layout == REPORT_LAYOUTS[name], name


def test_example_supercritical(tmp_path, capsys):
    out = tmp_path / "ex.json"
    assert main(["example", "--rho", "0.8", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "poisson_insolvable = true" in stdout
    report = json.loads(out.read_text())
    assert abs(report["lambda_bar"] - (1 + math.log(0.8))) <= 1e-12
    assert report["poisson"]["satisfying_pairs"] == 0
    assert report["lp_gap"] <= 2e-2


def test_example_subcritical(tmp_path):
    out = tmp_path / "ex.json"
    assert main(["example", "--rho", "0.1353", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["lambda_bar"] == 0.0
    assert 0.05 < report["q22"] < 0.95
    assert report["poisson"] is None
    assert 0.05 < report["lp_q22"] < 0.95


@pytest.mark.parametrize("rho", ["1e-10", "1e-15", "1e-300"])
def test_example_tiny_rho_exits_cleanly(tmp_path, rho):
    # the self-loop weight sits near e * rho, below any fixed bracket in q
    out = tmp_path / "ex.json"
    code = main(["example", "--rho", rho, "--out", str(out)])
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        report = json.loads(out.read_text())
        r, q = float(rho), report["q22"]

        def d(x):   # B(x) + (1 - x) B'(x), B(x) = 1 - KL((x, 1-x) || (r, 1-r))
            gain = 1.0 - x * math.log(x / r) - (1.0 - x) * math.log((1.0 - x) / (1.0 - r))
            return gain + (1.0 - x) * (math.log(r / x) + math.log((1.0 - x) / (1.0 - r)))

        tol = 1e-10   # in log q
        assert d(q * math.exp(-tol)) > 0.0 > d(q * math.exp(tol))


def test_example_bad_rho_exit_2():
    assert main(["example", "--rho", "1.5"]) == 2


def test_solver_failure_exit_4(tmp_path, monkeypatch, capsys):
    from riskmdp import game
    from riskmdp.lp import LpError

    def boom(*args, **kwargs):
        raise LpError("synthetic breakdown")

    monkeypatch.setattr(game, "solve_sequence", boom)
    model = write_two_state(tmp_path)
    assert main(["solve", "--model", str(model)]) == 4
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["grid", "congen"])
def test_neg_inf_game_value_is_a_stated_solver_failure(tmp_path, capsys, method):
    # each action keeps the chain where it sends it, x at a and y at b, so
    # the actions share no successor: mixing them cuts every cycle, and the
    # game value is -inf, where the best pure policy's rate is 0.1
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["x", "y"],
        "transitions": {"x": [[1, 0], [1, 0]], "y": [[0, 1], [0, 1]]},
        "costs": [[0.2, 0.9], [0.5, 0.1]],
    }))
    assert main(["solve", "--model", str(path), "--method", method]) == 4
    err = capsys.readouterr().err
    assert "came back infeasible: the game value is -inf" in err
    assert "cut every cycle" in err and "riskmdp oracle" in err
    assert "numerical failure" not in err
    assert "Traceback" not in err and "None" not in err
    assert ("at resolution 2" if method == "grid" else "of constraint generation") in err
    assert main(["oracle", "--model", str(path)]) == 0
    assert "lambda_bar = 0.100000" in capsys.readouterr().out


def test_large_costs_are_no_neg_inf_outcome(tmp_path, capsys):
    # every state reaches a cycle of the common supports, so the game value
    # is finite, -1e10; at costs of 1e10 the grid's first LP still comes
    # back infeasible, which is a numerical failure, not the -inf outcome
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["x", "y"],
        "transitions": {"x": [[0.5, 0.5], [0.5, 0.5]], "y": [[0.9, 0.1], [0.2, 0.8]]},
        "costs": [[1e10, -1e10], [-1e10, 1e10]],
    }))
    assert main(["solve", "--model", str(path), "--method", "grid"]) == 4
    err = capsys.readouterr().err
    assert "at resolution 2 came back infeasible" in err and "a numerical failure" in err
    assert "-inf" not in err and "Traceback" not in err
    for argv in (["solve", "--method", "congen"], ["oracle"]):
        assert main([*argv, "--model", str(path)]) == 0
        assert "lambda_bar = -10000000000.000000" in capsys.readouterr().out


# derandomized, so a run always draws the same models: differing supports,
# absorbing, disconnected and periodic chains, s = 1, costs up to +-1e3 and
# subnormal kernel entries; every command must end in a stated exit code
@settings(max_examples=32, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["differing", "absorbing", "disconnected", "periodic"]),
       seed=st.integers(0, 2**16), s=st.integers(1, 4), m=st.integers(1, 3),
       cost_scale=st.sampled_from([1.0, 1e3]), subnormal=st.booleans())
def test_commands_end_in_a_stated_exit_code(tmp_path_factory, kind, seed, s, m,
                                            cost_scale, subnormal):
    model = structured_model(kind, seed, s, m)
    kernel = np.array(model.kernel)
    if subnormal:
        # state 0 may also move to the last state, with the least positive double
        kernel[:, 0, s - 1] = np.where(kernel[:, 0, s - 1] > 0.0, kernel[:, 0, s - 1], 5e-324)
    model = MdpModel(states=model.states, actions=model.actions, kernel=kernel,
                     cost=(model.cost / 5.0 - 1.0) * cost_scale)
    tmp = tmp_path_factory.mktemp("structured")
    path = write_model(tmp, model)
    stated = {0, 2, 3, 4, 5}
    for method in ("grid", "congen"):
        out = tmp / f"{method}.json"
        assert main(["solve", "--model", str(path), "--method", method, "--n-max", "3",
                     "--out", str(out)]) in stated
        if out.exists():
            assert main(["verify", "--model", str(path), "--solution", str(out)]) in stated
    assert main(["oracle", "--model", str(path)]) in stated


SOLVEBENCH = Path(__file__).resolve().parents[1] / "solvebench"
# writes the benchmark's congen-ring model 6 of seed 1602 and solves it; with
# "cold" every game LP starts cold, which is the path round 1 and every grid
# LP take
RING_1602_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import models
from riskmdp import cli, game
models.write_model(sys.argv[2], *models.generate("ring", 32, 3, 1602, 6))
if sys.argv[4] == "cold":
    solve = game.lp_solve
    game.lp_solve = lambda program, **kwargs: solve(program)
sys.exit(cli.main(["solve", "--model", sys.argv[2], "--out", sys.argv[3],
                   "--method", "congen"]))
"""


@pytest.mark.parametrize("start", ["warm", "cold"])
def test_congen_ring_seed_1602_model_6_solves_under_single_threaded_blas(tmp_path, start):
    # under single-threaded BLAS, phase 2 of the cold round-5 LP met a
    # rounding-noise entry (1.2e-8 against a column maximum of 979) on the
    # row of the artificial that holds the dual's redundant kernel-balance
    # row; pivoting that artificial out left a singular basis (exit 4)
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RING_1602_CHILD, str(SOLVEBENCH), str(tmp_path / "model.json"),
         str(tmp_path / "report.json"), start],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "report.json").read_text())["certified"]


def test_congen_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the crash point closes this model: lambda, V and y come from the log
    # Perron vector, and mu, nu and w from a 64 x 64 np.linalg.solve, which
    # gives the same bits under one and two threads (at s = 128 it does not,
    # and dual_w differs)
    model = write_model(tmp_path, random_model(3, 64, 3))
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "riskmdp", "solve", "--model", str(model), "--out", str(out),
             "--method", "congen"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = strip_timings(json.loads(out.read_text()))
        report["command"][report["command"].index(str(out))] = "OUT"
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]


def test_module_entry_point(tmp_path):
    model = write_two_state(tmp_path)
    # the child imports the same package as this process, installed or not
    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "riskmdp", "solve", "--model", str(model)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "lambda_bar = 0.776856" in proc.stdout


def test_reports_are_json_dumps_bytes_of_every_report_kind(tmp_path, monkeypatch):
    # canonical_json writes each list of floats in one join; its output must
    # stay json.dumps(report, indent=2, allow_nan=False), on the report
    # objects themselves (numpy floats included) and in the files written
    reports = []

    def record(obj):
        reports.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", record)
    model = write_model(tmp_path, random_model(11, 3, 2))
    grid = tmp_path / "solve-grid.json"
    tampered = tmp_path / "tampered.json"
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": {"s0": "a1", "s1": {"a0": 0.5, "a1": 0.5},
                                             "s2": "a0"}}))
    flip = tmp_path / "flip.json"   # no state keeps its level: the certificate cannot be built
    flip.write_text(json.dumps({"states": ["a", "b"], "actions": ["x"],
                                "transitions": {"x": [[0, 1], [1, 0]]}, "costs": [[0], [0]]}))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"phi_star": [0.0, 1.0], "potentials": [0.0, 0.0]}))
    calls = {
        "solve-grid": (["solve", "--model", str(model)], 0),
        "solve-congen": (["solve", "--model", str(model), "--method", "congen"], 0),
        "oracle": (["oracle", "--model", str(model)], 0),
        "oracle-policy": (["oracle", "--model", str(model), "--policy", str(policy)], 0),
        "verify-passed": (["verify", "--model", str(model), "--solution", str(grid)], 0),
        "verify-failed": (["verify", "--model", str(model), "--solution", str(tampered)], 5),
        "verify-error": (["verify", "--model", str(flip), "--solution", str(split)], 5),
        "example-above": (["example", "--rho", "0.8"], 0),
        "example-below": (["example", "--rho", "0.1"], 0),
    }
    for name, (argv, code) in calls.items():
        if name == "verify-failed":
            report = json.loads(grid.read_text())
            report["phi_star"][0] += 0.1
            tampered.write_text(json.dumps(report))
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == code, name
        expected = json.dumps(reports[-1], indent=2, allow_nan=False)
        assert canonical_json(reports[-1]) == expected, name
        assert out.read_text() == expected + "\n", name
    assert "error" in json.loads((tmp_path / "verify-error.json").read_text())
    assert json.loads((tmp_path / "example-below.json").read_text())["poisson"] is None


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, -2.5e-308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
LEAVES = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-2**70, 2**70), st.booleans(),
                   st.none(), st.text(), st.sampled_from(["é", "λ̄ ≤ 1", " ", '"\\\n']))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(FLOATS), st.lists(FLOATS.map(np.float64)).map(tuple),
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4)), max_leaves=24))
def test_canonical_json_is_json_dumps(obj):
    assert canonical_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["alone", "float-list", "mixed-list", "dict"])
def test_canonical_json_rejects_nonfinite_floats(bad, where):
    obj = {"alone": bad, "float-list": [0.5, bad], "mixed-list": [1, "x", bad],
           "dict": {"q": [[0.5], {"w": bad}]}}[where]
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        canonical_json(obj)


def _report_without_timings(text: str) -> dict:
    return strip_timings(json.loads(text[text.index("{\n"):]))


def test_one_process_gives_each_call_the_report_of_a_fresh_process(tmp_path, capsys):
    # main builds its parser once per process: flags, defaults and --out must
    # not carry from one call to the next
    model = write_model(tmp_path, random_model(11, 3, 2))
    report = tmp_path / "report.json"
    calls = [
        (["solve", "--model", str(model), "--n-max", "-1"], "usage"),
        (["solve", "--model", str(model), "--n-max", "4", "--out", str(report)], report),
        (["solve", "--model", str(model), "--n-max", "4"], "stdout"),
        (["verify", "--model", str(model), "--solution", str(report), "--tol", "0.1",
          "--out", str(tmp_path / "verify-loose.json")], tmp_path / "verify-loose.json"),
        (["verify", "--model", str(model), "--solution", str(report),
          "--out", str(tmp_path / "verify.json")], tmp_path / "verify.json"),
        (["solve", "--model", str(model), "--method", "congen",
          "--out", str(tmp_path / "congen.json")], tmp_path / "congen.json"),
    ]
    in_process = []
    for argv, out in calls:
        if out == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            in_process.append((exc.value.code, capsys.readouterr().err))
            continue
        code = main(argv)
        stdout = capsys.readouterr().out
        in_process.append((code, _report_without_timings(
            stdout if out == "stdout" else out.read_text())))
    assert in_process[0][0] == 2 and "--n-start" in in_process[0][1]
    assert in_process[2][1]["command"][-2:] == ["--n-max", "4"]
    assert (in_process[3][1]["tolerance"], in_process[4][1]["tolerance"]) == (0.1, 1e-3)
    assert in_process[5][1]["method"] == "congen" and "beta_trace" not in in_process[5][1]

    package_root = str(Path(riskmdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for (argv, out), got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "riskmdp", *argv], capture_output=True,
                              text=True, timeout=120, env=env)
        if out == "usage":
            assert (proc.returncode, proc.stderr) == got
        else:
            text = proc.stdout if out == "stdout" else out.read_text()
            assert (proc.returncode, _report_without_timings(text)) == got, argv
