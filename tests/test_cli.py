import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskmdp
from riskmdp.cli import main

from helpers import random_model


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
    assert report["report_version"] == 1
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


def test_solve_guard_violation_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    s = 5
    kernel = rng.dirichlet(np.ones(s), size=(1, s))  # full 5-state supports
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in range(s)], "actions": ["a"],
        "transitions": {"a": kernel[0].tolist()},
        "costs": [[0.0]] * s,
    }))
    assert main(["solve", "--model", str(path), "--n-start", "8"]) == 3
    assert "guard" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["grid", "congen"])
def test_large_costs_give_a_report_not_a_traceback(tmp_path, capsys, recwarn, method):
    # exp(cost) overflows double precision past about 709
    path = tmp_path / "costly.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "actions": ["x", "y"],
        "transitions": {"x": [[0.6, 0.4], [0.3, 0.7]], "y": [[0.5, 0.5], [0.2, 0.8]]},
        "costs": [[790.0, 800.0], [795.0, 798.0]],
    }))
    out = tmp_path / "report.json"
    code = main(["solve", "--model", str(path), "--method", method, "--out", str(out)])
    assert code in {0, 2, 3, 4, 5}
    report = json.loads(out.read_text())
    assert "error" in report["certificate"]
    assert main(["verify", "--model", str(path), "--solution", str(out)]) == 5
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "RuntimeWarning" not in captured.err
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
    from riskmdp.model import StationaryPolicy
    from riskmdp.oracle import growth_rate
    rates = growth_rate(m, StationaryPolicy.pure([1, 0, 1], 2))
    np.testing.assert_allclose(report["per_state"], rates.lam, atol=1e-12)


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
