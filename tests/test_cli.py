import inspect
import json
import os
import shutil
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


_RICHARDSON = ": Richardson ratio h vs h/2 in 4 +/- 0.5"

# every row of the verify reports and of the flyby's ehrenfest report, in
# report order: (name, law, tol)
REPORT_ROWS = [
    # algebra
    ("multiplication-table", "e_i e_j = -delta_ij e0 + eps_ijk e_k, exact", 0.0),
    ("associativity", "(p q) r = p (q r)", 1e-12),
    ("conjugation", "(p q)* = q* p*", 1e-12),
    ("norm-multiplicative", "|p q| = |p| |q|", 1e-12),
    ("su2-homomorphism", "su2(p q) = su2(p) su2(q)", 1e-12),
    ("su2-special-unitary", "det su2(p) = 1 for unit p", 1e-10),
    ("imaginary-square", "w^2 = -e0 for imaginary units", 1e-12),
    ("exp-one-parameter", "qexp(s w) qexp(t w) = qexp((s+t) w)", 1e-12),
    ("auto-multiplicative", "auto(w, p q) = auto(w, p) auto(w, q)", 1e-12),
    # geometry
    ("dirq-square", "dirq(x)^2 = -e0", 1e-12),
    ("transport-unitarity", "|w(a; x)| = 1", 1e-12),
    ("transport-cocycle", "w(ta; x+sa) w(sa; x) = w((s+t)a; x)", 1e-12),
    ("multiplier-flux", "m(a,b;x) = qexp(dirq(x) * flux(x, x+b, x+a+b))", 1e-09),
    ("multiplier-trivial", "m(a, 0; x) = e0", 1e-10),
    ("multiplier-coplanar", "m = e0 when x, a, b are coplanar with the origin", 1e-09),
    ("flux-quantization", "tetraflux = 2pi iff the origin is inside, else 0", 1e-09),
    ("triflux-additivity", "flux(whole) = flux(part1) + flux(part2)", 1e-10),
    ("curvature-antisymmetry", "kappa_ij = -kappa_ji", 0.0),
    ("curvature-su2-radial", "omega^r_ij = kappa_ij x^r / |x|", 1e-12),
    ("curvature-field-strength",
     "dA_j/dx_i - dA_i/dx_j + [A_i, A_j] = kappa_ij dirq(x) (FD)", 1e-06),
    ("bfield-divergence", "div B = 0 away from the origin (FD)", 1e-06),
    ("chern-integral", "sphere integral of kappa = 2pi", 1e-06),
    ("chern-radius", "radius independence of the sphere integral", 1e-06),
    ("chern-orientation", "reversed orientation flips the sign", 1e-06),
    # gis
    ("covariance", "U(a) E(box) = E(box+a) U(a), bit-exact", 0.0),
    ("composition-defect", "symbol of U(a+b)* U(a) U(b) = w(a+b;x)* w(a;x+b) w(b;x)", 1e-12),
    ("defect-pointwise", "closure defect has zero net displacement", 0.0),
    ("multiplier-unit", "|m(a,b;x)| = 1", 1e-12),
    ("multiplier-commutes", "M(a,b) E(box) = E(box) M(a,b), bit-exact", 0.0),
    ("flux-quantization", "tetrahedron flux in {0, 2pi} (inside iff 2pi)", 1e-09),
    ("associativity", "qexp(dirq(x) * tetraflux) = e0", 1e-09),
    ("slice-winding", "qexp(2 pi w) = e0 for every imaginary unit", 1e-12),
    # operators
    ("jop-square", "J^2 = -I", 1e-14),
    ("jop-antihermitian", "inner(phi, J psi) = -inner(J phi, psi)", 1e-12),
    ("jop-isometry", "|J psi| = |psi|", 1e-12),
    ("position-j-commute", "[X_i, J] = 0 (roundoff only)", 1e-14),
    ("imprimitivity", "U(a) E(box) = E(box+a) U(a), bit-exact", 0.0),
    ("shift-composition", "V(a) V(b) = V(a+b), bit-exact", 0.0),
    ("twisted-unitarity", "|U(a) psi| = |psi| (interior support)", 1e-12),
    ("one-parameter-line", "U(s u) U(t u) = U((s+t) u)", 1e-12),
    ("defect-symbol", "U(a+b)* U(a) U(b) has symbol w(a+b;x)* w(a;x+b) w(b;x)", 1e-12),
    ("defect-pointwise", "closure defect is a pointwise multiplier", 0.0),
    ("wpr-nontrivial", "generic closure defect differs from the identity", 0.0),
    ("wpr-parallel-trivial", "m(a, b; x) = e0 for parallel a, b", 1e-12),
    ("connection-value", "connection(e1)(0,0,1) = -e2/2", 1e-15),
    ("grad-position", "[grad_i, X_j] = delta_ij (step h)", 0.002),
    ("grad-position-order", "[grad_i, X_j] = delta_ij" + _RICHARDSON, 0.5),
    ("grad-commutator", "[grad_i, grad_j] = kappa_ij J (step h)", 0.002),
    ("grad-commutator-order", "[grad_i, grad_j] = kappa_ij J" + _RICHARDSON, 0.5),
    ("rotation-covariance", "[M_i, grad_j] = -eps_ijk grad_k (step h)", 0.002),
    ("rotation-covariance-order", "[M_i, grad_j] = -eps_ijk grad_k" + _RICHARDSON, 0.5),
    ("rotation-j-invariance", "[M_i, J] = 0 (step h)", 0.002),
    ("rotation-j-invariance-order", "[M_i, J] = 0" + _RICHARDSON, 0.5),
    ("rotation-position", "[M_3, X_1] = -X_2", 0.002),
    ("spin-half-turn", "exp(2 pi M_3) = -I", 1e-12),
    ("twisted-generator", "(U(s u) psi - psi)/s -> -grad_u psi", 0.01),
    ("twisted-generator-order", "first-order convergence ratio in 2 +/- 0.5", 0.5),
    ("hamiltonian-hermitian", "inner(phi, H psi) = inner(H phi, psi)", 1e-12),
    ("hamiltonian-j-commute", "[H, J] = 0, exact on the lattice", 1e-12),
    ("hamiltonian-velocity", "[H, X_i] = -(1/m) grad_i, exact on the lattice", 1e-12),
    ("bfield-op", "B_3 symbol = x_3 / (2 |x|^3)", 1e-14),
    ("adjoint-consistency", "inner(phi, A psi) = inner(A* phi, psi)", 1e-10),
    ("hamiltonian-wpr",
     "H = -(1/2m h^2) sum_i (U_i^+ + U_i^- - 2), exact on the lattice", 1e-12),
    ("covderiv-wpr", "grad_i = (U_i^- - U_i^+)/2h, exact on the lattice", 1e-12),
    # splitting
    ("reconstruction", "psi1 + psi2 omega_tilde = psi", 1e-14),
    ("norm-additivity", "|psi|^2 = |psi1|^2 + |psi2|^2", 1e-12),
    ("slice-membership", "J psi_k = psi_k omega", 1e-14),
    ("orthogonality-real", "Re inner(psi1, psi2 omega_tilde) = 0", 1e-12),
    ("orthogonality-slice", "slice part of inner(psi1, psi2 omega_tilde) = 0", 1e-12),
    ("inner-in-slice", "inner on the slice takes slice-field values", 1e-12),
    ("split-of-member", "psi in slice -> split(psi) = (psi, 0)", 1e-14),
    ("slice-linear", "psi in slice -> psi z in slice for z = u + v omega", 1e-12),
    ("reduce-twisted-shift", "U(a) preserves the slice", 1e-12),
    ("reduce-hamiltonian", "H preserves the slice (exact for hop links)", 1e-12),
    ("reduce-negative-control", "bare e1 multiplier does NOT reduce (residual order 1)", 0.0),
    # ehrenfest
    ("velocity-identity", "d<X>/dt = <-(J/m) grad>", 0.01),
    ("force-identity", "d2<X>/dt2 = <eps (v B + B v)> / 2m", 0.05),
]


def test_every_report_row_keeps_its_name_law_and_tolerance():
    # small runs of every suite at its default tol, and a 4-step flyby
    reports = [SUITES["algebra"](samples=10), SUITES["geometry"](samples=20),
               SUITES["gis"](n=12, samples=4), SUITES["operators"](n=14, box=4.0, samples=4),
               SUITES["splitting"](n=8, samples=1),
               dynamics.ehrenfest(dynamics.evolve(dynamics.monopole_flyby_config(16, steps=4))[0])]
    assert [(c.name, c.law, c.tol) for rep in reports for c in rep.checks] == REPORT_ROWS


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
    ["--mass", "1e-320", "--steps", "2"],  # the step scale dt / (m h^2) exceeds 1e15
    ["--mass", "1e-320", "--dt", "0", "--steps", "0"],  # the hop weight overflows to -inf
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
                 ["verify", "operators", "--n", "14", "--box", "600"],
                 # a box whose volume floats cannot hold, a radius whose cube is not normal
                 ["verify", "operators", "--n", "14", "--box", "1e150", "--samples", "2"],
                 ["chern", "--n", "8", "--radius", "1e200"],
                 ["chern", "--n", "8", "--radius", "1e-200"],
                 # a step scale dt / (m h^2) above 1e15: too small a mass or too long a step
                 ["evolve", "--preset", "flyby", "--steps", "2", "--mass", "1e-20"],
                 ["evolve", "--preset", "flyby", "--steps", "2", "--mass", "1e-100"],
                 ["evolve", "--preset", "flyby", "--steps", "2", "--mass", "1e-160"],
                 ["evolve", "--preset", "free", "--steps", "2", "--dt", "1e15"],
                 # a force scale 1 / (m^2 h^3) that overflows: refused, not a run
                 # with a nan force-identity
                 ["evolve", "--preset", "flyby", "--n", "16", "--box", "6", "--mass", "1e-160",
                  "--dt", "1e-149", "--steps", "4"],
                 # a dt whose square underflows: refused, not a run with a nan force-identity
                 ["evolve", "--preset", "flyby", "--n", "16", "--dt", "1e-170", "--steps", "4"]):
        assert cli.main([*args, "--out", out]) == 2, args
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("box", ["1e300", "1e-170"])
def test_a_box_that_floats_cannot_hold_is_a_usage_error(tmp_path, box):
    # the splitting suite's slice sampler would redraw forever once |center|
    # overflows to inf or underflows to 0; a fresh process with a timeout, so
    # that a regression fails here instead of hanging the run
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "qmono.cli", "verify", "splitting", "--n", "8", "--box", box,
         "--samples", "2", "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env)
    assert run.returncode == 2
    assert "usage error:" in run.stderr and "Traceback" not in run.stderr
    assert list(tmp_path.iterdir()) == []


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


def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the directory exists, but a path the command writes names a directory:
    # refused before any work runs, and nothing is written
    calls = []
    monkeypatch.setitem(cli.SUITES, "algebra", lambda **k: calls.append(k))
    monkeypatch.setattr(cli.geometry, "chern", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli.dynamics, "evolve", lambda *a: calls.append(a))
    evolve = ["evolve", "--preset", "free", "--n", "16", "--steps", "4", "--out", "traj.csv"]
    for k, (args, taken) in enumerate([
            (["verify", "algebra"], "qmono-algebra-report.json"),
            (["verify", "algebra", "--out", "rep.json"], "rep.json"),
            (["chern", "--n", "16", "--out", "table.csv"], "table.csv"),
            (evolve, "traj.csv"),
            (evolve, "traj-report.json")]):
        cwd = tmp_path / str(k)
        (cwd / taken).mkdir(parents=True)
        monkeypatch.chdir(cwd)
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert "usage error:" in captured.err and taken in captured.err
        assert calls == []
        assert [p.name for p in cwd.iterdir()] == [taken]
        assert list((cwd / taken).iterdir()) == []
    # an empty --out names no file either
    monkeypatch.chdir(tmp_path / "0")
    assert cli.main([*evolve[:-1], ""]) == 2
    assert "usage error:" in capsys.readouterr().err and calls == []


def test_suites_take_only_the_options_of_qmono_verify():
    # a suite parameter that the CLI cannot set is a knob only tests reach
    for name, suite in SUITES.items():
        assert set(inspect.signature(suite).parameters) <= {"samples", "seed", "n", "box", "tol"}, name


def test_verify_options_have_no_parser_default():
    # each default is written once, in the suite's signature
    for name in SUITES:
        args = cli._build_parser().parse_args(["verify", name])
        assert [args.samples, args.seed, args.n, args.box, args.tol] == [None] * 5, name


def test_verify_at_cli_defaults_writes_the_suite_default_report(tmp_path):
    out = tmp_path / "gis.json"
    assert cli.main(["verify", "gis", "--n", "12", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = SUITES["gis"](n=12).to_dict()
    del got["timestamp"], want["timestamp"]
    assert got == want


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


def test_no_command_imports_scipy_sparse_or_linalg(tmp_path):
    # the program reaches scipy only through two compiled modules: no command
    # imports the Python layer of scipy.sparse or scipy.linalg, and the
    # solver's BLAS loads with an evolver only; multiprocessing and the
    # process pool load with the first forking suite only; a fresh process
    # shows which
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
from qmono import cli
out = {str(tmp_path)!r}

def loaded(*head):
    print("loaded:", *head, *(name in sys.modules for name in (
        "scipy.sparse", "scipy.linalg", "scipy.linalg._fblas",
        "multiprocessing", "concurrent.futures.process")))

loaded("cli")
commands = [
    ["verify", "geometry", "--samples", "200"],
    ["chern", "--n", "16", "--tol", "1e-2"],
    ["evolve", "--preset", "free", "--n", "12", "--steps", "2"],
    ["verify", "gis", "--samples", "10", "--n", "12", "--box", "4.0"],
    ["verify", "operators", "--samples", "10", "--n", "14", "--box", "4.0"],
    ["verify", "splitting", "--samples", "2", "--n", "8"],
]
for k, args in enumerate(commands):
    path = out + "/" + str(k) + (".csv" if args[0] != "verify" else ".json")
    loaded(args[0], cli.main([*args, "--out", path]))
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert [line for line in run.stdout.splitlines() if line.startswith("loaded:")] == [
        "loaded: cli False False False False False",
        "loaded: verify 0 False False False False False",
        "loaded: chern 0 False False False False False",
        "loaded: evolve 0 False False True False False",
        *["loaded: verify 0 False False True True True"] * 3,
    ]


def test_the_output_recorder_fails_when_qmono_does_not_import(tmp_path):
    # tools/cli_outputs.py records each command's exit and stderr, so two
    # recordings in which nothing ran would compare equal; it must fail instead
    tool = tmp_path / "tools" / "cli_outputs.py"
    tool.parent.mkdir()
    shutil.copy(Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py", tool)

    def record(name):
        return subprocess.run([sys.executable, str(tool), str(tmp_path / name)],
                              capture_output=True, text=True, timeout=300)

    # no src/qmono beside the copy: exit 2 before anything is recorded
    run = record("missing")
    assert run.returncode == 2 and "no qmono package" in run.stderr
    assert not (tmp_path / "missing").exists()
    # a qmono that fails to import: every run is recorded, then exit 1
    (tmp_path / "src" / "qmono").mkdir(parents=True)
    (tmp_path / "src" / "qmono" / "__init__.py").write_text('raise ImportError("broken")\n')
    run = record("broken")
    runs = sorted(p.name for p in (tmp_path / "broken").iterdir())
    assert run.returncode == 1 and len(runs) > 20
    assert f"qmono failed to import in {len(runs)} of {len(runs)} runs" in run.stderr
    assert {(tmp_path / "broken" / name / "exit").read_text() for name in runs} == {"1\n"}
