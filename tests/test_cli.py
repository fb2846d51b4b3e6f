import json

import numpy as np
import pytest

from qmono import cli, dynamics, quat


def test_verify_algebra_passes(tmp_path, capsys):
    out = tmp_path / "algebra.json"
    code = cli.main(["verify", "algebra", "--samples", "2000", "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "algebra"
    assert rep["seed"] == 7
    assert rep["pass"] is True
    for c in rep["checks"]:
        assert set(c) == {"name", "law", "max_dev", "mean_dev", "tol", "pass"}
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_verify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["verify", "algebra", "--samples", "1000", "--out", str(a)]) == 0
    assert cli.main(["verify", "algebra", "--samples", "1000", "--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("timestamp")
    db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_verify_negative_control(tmp_path, monkeypatch, capsys):
    # sign-flipped multiplication table must fail the algebra suite
    real_qmul = quat.qmul

    def flipped(p, q):
        out = real_qmul(p, q)
        return out * np.array([1.0, -1.0, 1.0, 1.0])

    monkeypatch.setattr(quat, "qmul", flipped)
    code = cli.main(["verify", "algebra", "--samples", "500",
                     "--out", str(tmp_path / "bad.json")])
    assert code == 1
    assert "worst offender" in capsys.readouterr().err


def test_verify_gis_small(tmp_path):
    out = tmp_path / "gis.json"
    code = cli.main(["verify", "gis", "--samples", "40", "--n", "16",
                     "--box", "4.0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    names = [c["name"] for c in rep["checks"]]
    assert "covariance" in names and "flux-quantization" in names


def test_chern_command(tmp_path, capsys):
    out = tmp_path / "chern.csv"
    code = cli.main(["chern", "--n", "64", "--out", str(out)])
    assert code == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape[1] == 4
    assert abs(table[-1, 2] - 2 * np.pi) < 1e-6
    text = capsys.readouterr().out
    assert "target 2*pi" in text


def test_chern_radius_flag():
    assert cli.main(["chern", "--n", "64", "--radius", "7.0"]) == 0


def test_evolve_zero_steps(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main(["evolve", "--preset", "free", "--n", "12", "--box", "6.0",
                     "--steps", "0", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,x1,x2,x3,v1,v2,v3,norm,energy"
    assert len(rows) == 2  # header + single sample


def test_evolve_short_run(tmp_path):
    out = tmp_path / "traj.csv"
    code = cli.main(["evolve", "--preset", "free", "--n", "16", "--box", "6.0",
                     "--dt", "0.05", "--steps", "12", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (13, 9)
    # norm column constant to integrator tolerance
    assert np.abs(data[:, 7] - data[0, 7]).max() < 1e-10
    rep = json.loads((tmp_path / "traj-report.json").read_text())
    assert any(c["name"] == "velocity-identity" for c in rep["checks"])


@pytest.mark.parametrize("overrides", [
    ["--box", "3.0", "--steps", "0"],  # packet 0.5 from a wall, 3 sigma = 3.0
    ["--mass", "-1", "--steps", "2"],
    ["--mass", "0", "--steps", "2"],
    ["--n", "7"],
    ["--n", "2"],
])
def test_evolve_overrides_are_validated(tmp_path, capsys, overrides):
    code = cli.main(["evolve", "--preset", "free", "--n", "12", *overrides,
                     "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    assert "usage error:" in capsys.readouterr().err


def test_evolve_solver_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "cg", lambda a, b, **kwargs: (b, 1))
    code = cli.main(["evolve", "--preset", "free", "--n", "12", "--box", "6.0",
                     "--steps", "2", "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "residual=" in err


def test_usage_errors():
    assert cli.main(["chern", "--n", "4"]) == 2
    assert cli.main(["verify", "gis", "--n", "7"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["algebra", "geometry", "gis", "operators", "splitting"])
def test_verify_rejects_zero_samples(tmp_path, capsys, suite):
    code = cli.main(["verify", suite, "--samples", "0", "--n", "16",
                     "--out", str(tmp_path / "rep.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error:" in err and "--samples" in err


@pytest.mark.parametrize("suite, least", [("gis", 12), ("operators", 14)])
def test_verify_lattice_minimum_does_not_depend_on_the_seed(tmp_path, capsys, suite, least):
    for seed in range(1, 9):
        args = ["verify", suite, "--box", "4.0", "--samples", "20", "--seed", str(seed),
                "--out", str(tmp_path / "rep.json")]
        assert cli.main([*args, "--n", str(least - 2)]) == 2
        assert f"n >= {least}" in capsys.readouterr().err
        assert cli.main([*args, "--n", str(least)]) == 0


def test_evolve_single_step_gates_norm_drift(tmp_path, monkeypatch, capsys):
    # a "solver" returning its right-hand side is not unitary: one step
    # drifts the norm, too short a run for the Ehrenfest report
    monkeypatch.setattr(dynamics, "cg", lambda a, b, **kwargs: (b, 0))
    code = cli.main(["evolve", "--preset", "free", "--n", "12", "--box", "6.0",
                     "--steps", "1", "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    assert "norm drift" in capsys.readouterr().out
