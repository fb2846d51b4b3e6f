import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmono import cli, dynamics, quat
from qmono.verify import SUITES


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
    # the lattice suites run the BLAS kernels (the Gram inner product, the
    # right product by a constant), the batched analytic identities, and
    # (gis hardest) the twisted shifts and closure defects of integer steps
    for args in (["algebra", "--samples", "1000"],
                 ["splitting", "--samples", "50", "--n", "12"],
                 ["operators", "--samples", "50", "--n", "14"],
                 ["gis", "--samples", "100", "--n", "12"]):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["verify", *args, "--out", str(a)]) == 0
        assert cli.main(["verify", *args, "--out", str(b)]) == 0
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        da.pop("timestamp")
        db.pop("timestamp")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True), args[0]


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


def test_verify_splitting_negative_control(tmp_path, monkeypatch, capsys):
    # the right scalar action replaced by the left product c p must fail the
    # splitting suite
    real_qmul = quat.qmul
    monkeypatch.setattr(quat, "rmul", lambda p, c: real_qmul(c, p))
    code = cli.main(["verify", "splitting", "--samples", "20", "--n", "12",
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


def test_verify_operators_reports_the_samples_drawn(tmp_path):
    # the imprimitivity loop draws at most 200 samples
    out = tmp_path / "operators.json"
    code = cli.main(["verify", "operators", "--samples", "10000", "--n", "14",
                     "--box", "4.0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["n_samples"] == 200


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


def test_evolve_report_path_keeps_dotted_directories(tmp_path):
    # only the file's own extension is replaced, never a dot in a directory
    outdir = tmp_path / "a.b"
    outdir.mkdir()
    code = cli.main(["evolve", "--preset", "free", "--n", "12", "--box", "6.0",
                     "--steps", "3", "--out", str(outdir / "traj")])
    assert code == 0
    assert (outdir / "traj").exists()
    assert (outdir / "traj-report.json").exists()
    assert not (tmp_path / "a-report.json").exists()


@pytest.mark.parametrize("overrides", [
    ["--box", "3.0", "--steps", "0"],  # packet 0.5 from a wall, 3 sigma = 3.0
    ["--mass", "-1", "--steps", "2"],
    ["--mass", "0", "--steps", "2"],
    ["--n", "7"],
    ["--n", "2"],
    ["--dt", "0", "--steps", "4"],  # identity steps with no time axis
    ["--dt", "nan", "--steps", "2"],
    ["--dt", "inf", "--steps", "2"],
    ["--mass", "nan", "--steps", "2"],
    ["--mass", "inf", "--steps", "2"],
    ["--box", "inf", "--steps", "0"],
    ["--box", "nan", "--steps", "0"],
    ["--box", "1000", "--steps", "2"],  # the packet underflows to norm 0
])
def test_evolve_overrides_are_validated(tmp_path, capsys, overrides):
    code = cli.main(["evolve", "--preset", "free", "--n", "12", *overrides,
                     "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    assert "usage error:" in capsys.readouterr().err
    # rejected before any step runs: nothing is written
    assert list(tmp_path.iterdir()) == []


def test_evolve_solver_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "cg", lambda a, b, **kwargs: (b, 1))
    code = cli.main(["evolve", "--preset", "free", "--n", "12", "--box", "6.0",
                     "--steps", "2", "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "residual=" in err


def test_usage_errors(tmp_path):
    assert cli.main(["chern", "--n", "4"]) == 2
    assert cli.main(["verify", "gis", "--n", "7"]) == 2
    # non-finite or negative numbers are rejected before anything is written
    out = str(tmp_path / "out")
    for args in (["verify", "algebra", "--tol", "-1"], ["verify", "algebra", "--tol", "nan"],
                 ["verify", "operators", "--tol", "inf"], ["verify", "gis", "--box", "nan"],
                 ["verify", "splitting", "--box", "inf"], ["chern", "--radius", "inf"],
                 ["chern", "--radius", "nan"], ["chern", "--radius", "-1"],
                 ["chern", "--tol", "nan"], ["chern", "--tol", "-1"],
                 # options the suite never reads: no lattice, or fixed tolerances
                 ["verify", "algebra", "--n", "32"], ["verify", "algebra", "--box", "6.0"],
                 ["verify", "geometry", "--n", "16"], ["verify", "geometry", "--box", "nan"],
                 ["verify", "gis", "--tol", "1e-12"], ["verify", "splitting", "--tol", "1e-3"],
                 # a box so wide that the operators suite's smooth Gaussian underflows to 0
                 ["verify", "operators", "--n", "14", "--box", "600"]):
        assert cli.main([*args, "--out", out]) == 2, args
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["verify", "algebra"],
    ["chern", "--n", "16"],
    ["evolve", "--preset", "free", "--n", "16", "--steps", "4"],
])
def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, args):
    def ran(*_, **__):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setitem(cli.SUITES, "algebra", ran)
    monkeypatch.setattr(cli.geometry, "chern", ran)
    monkeypatch.setattr(cli.dynamics, "evolve", ran)
    code = cli.main([*args, "--out", str(tmp_path / "missing" / "out.txt")])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    assert cli.main(["chern", "--n", "16", "--out", str(tmp_path)]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_suites_take_only_the_options_of_qmono_verify():
    # a suite parameter that the CLI cannot set is a knob only tests reach
    for name, suite in SUITES.items():
        assert set(inspect.signature(suite).parameters) <= {"samples", "seed", "n", "box", "tol"}, name


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


def test_verify_never_loads_the_solver_blas(tmp_path):
    # scipy.linalg (the BLAS of the Cayley solver) loads with an evolver,
    # not with a verify run; a fresh process shows which
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
from qmono import cli, dynamics
from qmono.hilbert import LatticeSpec
out = {str(tmp_path)!r}
assert cli.main(["verify", "geometry", "--samples", "200", "--out", out + "/g.json"]) == 0
assert cli.main(["verify", "gis", "--samples", "10", "--n", "12", "--box", "4.0",
                 "--out", out + "/gis.json"]) == 0
print("scipy.linalg" in sys.modules)
dynamics.CayleyEvolver(LatticeSpec(n=12, box=4.0), 1.0, 0.1)
print("scipy.linalg" in sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["False", "True"]
