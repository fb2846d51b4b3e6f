"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  Criteria cover the quaternion algebra, the transport
cocycle, the holonomy-flux identity, flux quantization, the Chern
quadrature, imprimitivity and its closure defect, the stencil commutators
with their convergence order, the rotation structure, the complex-slice
splitting, the unitary dynamics with both Ehrenfest laws, and the negative
control for the transport sign variant.
"""

import time

import numpy as np
import pytest

import oracles
from qmono import dynamics, geometry, hilbert, quat, splitting, verify
from qmono.hilbert import LatticeSpec
from qmono.report import check_from_devs


def announce(num, name, passed, detail):
    line = f"ACCEPTANCE {'PASS' if passed else 'FAIL'} [{num:2d}] {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def operators_report():
    return verify.operators_suite(n=32, box=6.0, samples=1000, seed=42)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_1_quaternion_algebra():
    t0 = time.perf_counter()
    rep = verify.algebra_suite(samples=10000, seed=42, tol=1e-12)
    elapsed = time.perf_counter() - t0
    worst = max(c.max_dev for c in rep.checks)
    announce(1, "quaternion algebra suite", rep.passed and elapsed < 5.0,
             f"worst deviation {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s < 5s")


def test_criterion_2_transport_unitarity_and_cocycle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    x, a = verify._sample_legs(rng, 10000, verify._TRANSPORT_PAIRS)
    unit_dev = np.abs(quat.qnorm(geometry.transport(a, x)) - 1.0).max()
    xc, ac, s, t = verify._sample_legs(rng, 10000, verify._COCYCLE_SAMPLES)
    lhs = quat.qmul(geometry.transport(t[:, None] * ac, xc + s[:, None] * ac),
                    geometry.transport(s[:, None] * ac, xc))
    rhs = geometry.transport((s + t)[:, None] * ac, xc)
    coc_dev = quat.qnorm(lhs - rhs).max()
    elapsed = time.perf_counter() - t0
    announce(2, "transport unitarity and cocycle",
             unit_dev <= 1e-12 and coc_dev <= 1e-12 and elapsed < 10.0,
             f"unitarity {unit_dev:.2e}, cocycle {coc_dev:.2e} over 1e4 samples "
             f"(tol 1e-12), runtime {elapsed:.2f}s < 10s")


def test_criterion_3_multiplier_equals_flux_exponential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    x, a, b = verify._sample_legs(rng, 10000, verify._MULTIPLIER_TRIPLES)
    m_val = geometry.multiplier(a, b, x)
    flux = geometry.triflux(geometry.multiplier_flux_triangle(a, b, x))
    dev = quat.qnorm(m_val - quat.qexp(geometry.dirq(x) * flux[:, None])).max()
    elapsed = time.perf_counter() - t0
    announce(3, "multiplier = exp(J * flux)", dev <= 1e-9 and elapsed < 30.0,
             f"max deviation {dev:.2e} over 1e4 admissible triples (tol 1e-9), "
             f"runtime {elapsed:.2f}s < 30s")


def test_criterion_4_flux_quantization():
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, (20000, 3))
    a = rng.uniform(-1.5, 1.5, (20000, 3))
    b = rng.uniform(-1.5, 1.5, (20000, 3))
    c = rng.uniform(-1.5, 1.5, (20000, 3))
    keep = ~geometry.origin_near_tet_face(x, a, b, c)
    x, a, b, c = x[keep], a[keep], b[keep], c[keep]
    flux = geometry.tetraflux(x, a, b, c)
    inside = geometry.origin_inside_tetrahedron(x, a, b, c)
    expected = np.where(inside, 2.0 * np.pi, 0.0)
    dev = np.abs(flux - expected).max()
    announce(4, "tetrahedron flux quantization",
             len(x) >= 10000 and inside.sum() >= 50 and dev <= 1e-9,
             f"{len(x)} tetrahedra ({int(inside.sum())} enclosing), flux in "
             f"{{0, 2pi}} to {dev:.2e} (tol 1e-9), inside/outside matches the "
             "point-in-tetrahedron oracle")


def test_criterion_5_chern_integral():
    val = geometry.chern(256)
    val7 = geometry.chern(256, radius=7.0)
    err, err7 = abs(val - 2 * np.pi), abs(val7 - 2 * np.pi)
    # composite Simpson in the polar angle: fourth order, error ratio ~16
    errs = [abs(geometry.chern(g) - 2 * np.pi) for g in (8, 16, 32)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    order_ok = 8.0 < r1 < 32.0 and 8.0 < r2 < 32.0
    announce(5, "Chern integral 2*pi",
             err <= 1e-6 and err7 <= 1e-6 and order_ok,
             f"value {val:.9f} (err {err:.2e} <= 1e-6), radius-7 err {err7:.2e}, "
             f"refinement ratios {r1:.1f}, {r2:.1f} (fourth-order scheme)")


def test_criterion_6_imprimitivity_and_gis():
    rep = verify.gis_suite(n=32, box=6.0, samples=1000, seed=42)
    cov = _check(rep, "covariance")
    pw = _check(rep, "defect-pointwise")
    comm = _check(rep, "multiplier-commutes")
    announce(6, "imprimitivity and closure axioms",
             rep.passed and cov.max_dev == 0.0 and pw.max_dev == 0.0
             and comm.max_dev == 0.0,
             f"covariance bit-exact over 1000 commensurate (a, box); defect "
             f"always a pointwise multiplier (bit-exact commutation with "
             f"projections); symbol matches the transport product to "
             f"{_check(rep, 'composition-defect').max_dev:.2e}")


def test_criterion_7_commutators(operators_report):
    gp = _check(operators_report, "grad-position")
    gp_ord = _check(operators_report, "grad-position-order")
    gc = _check(operators_report, "grad-commutator")
    gc_ord = _check(operators_report, "grad-commutator-order")
    announce(7, "covariant-derivative commutators",
             all(c.passed for c in (gp, gp_ord, gc, gc_ord)),
             f"[grad_i, X_j] = delta_ij to {gp.max_dev:.2e}; "
             f"[grad_i, grad_j] = kappa_ij J to {gc.max_dev:.2e}; Richardson "
             f"ratios within 4 +/- 0.5 on 20 smooth fields "
             f"(worst |ratio-4|: {max(gp_ord.max_dev, gc_ord.max_dev):.2f})")


def test_criterion_8_rotation_structure(operators_report):
    cov = _check(operators_report, "rotation-covariance")
    cov_ord = _check(operators_report, "rotation-covariance-order")
    jin = _check(operators_report, "rotation-j-invariance")
    jin_ord = _check(operators_report, "rotation-j-invariance-order")
    turn = _check(operators_report, "spin-half-turn")
    announce(8, "rotation structure and spin half",
             all(c.passed for c in (cov, cov_ord, jin, jin_ord, turn)),
             f"[M_i, grad_j] = -eps_ijk grad_k to {cov.max_dev:.2e} (O(h^2)); "
             f"[M_i, J] = 0 to {jin.max_dev:.2e} (O(h^2)); full turn = -I to "
             f"{turn.max_dev:.2e} (tol 1e-12)")


def test_criterion_9_splitting(operators_report):
    srep = verify.splitting_suite(n=32, box=6.0, samples=200, seed=42)
    xj = _check(operators_report, "position-j-commute")
    hj = _check(operators_report, "hamiltonian-j-commute")
    rec = _check(srep, "reconstruction")
    add = _check(srep, "norm-additivity")
    red_u = _check(srep, "reduce-twisted-shift")
    red_h = _check(srep, "reduce-hamiltonian")
    announce(9, "splitting relations and slice reduction",
             srep.passed and xj.passed and hj.passed,
             f"[X,J] = 0 to {xj.max_dev:.2e}; [H,J] = 0 to {hj.max_dev:.2e} "
             f"(exact for transported hops, within the O(h^2) allowance); "
             f"reconstruction {rec.max_dev:.2e} (tol 1e-14); norm additivity "
             f"{add.max_dev:.2e} (tol 1e-12); twisted shifts and H preserve "
             f"the slice ({red_u.max_dev:.2e}, {red_h.max_dev:.2e})")


def _velocity_deviation(traj):
    dt = traj.times[1] - traj.times[0]
    dxdt = (traj.position[2:] - traj.position[:-2]) / (2 * dt)
    return np.abs(dxdt - traj.velocity[1:-1]).max() / np.abs(traj.velocity).max()


def test_criterion_10_dynamics():
    # norm preservation: 500 Cayley steps on a 32^3 lattice
    spec = LatticeSpec(n=32, box=6.0)
    psi = dynamics.gaussian_packet(spec, (-2.0, 1.5, 0.5), 0.8, (1.0, 0.0, 0.0))
    ev = dynamics.CayleyEvolver(spec, 1.0, 0.02)
    cur = psi
    for _ in range(500):
        cur = ev.step(cur)
    drift = abs(hilbert.norm(cur) - 1.0)
    slice_res = splitting.slice_residual(cur)

    # velocity law on the free preset, and its dt convergence
    traj_a, _ = dynamics.evolve(dynamics.free_flight_config(dt=0.1, steps=60))
    dev_a = _velocity_deviation(traj_a)
    traj_b, _ = dynamics.evolve(dynamics.free_flight_config(dt=0.05, steps=120))
    dev_b = _velocity_deviation(traj_b)
    ratio = dev_a / dev_b

    # force law on the monopole flyby preset
    traj_f, _ = dynamics.evolve(dynamics.monopole_flyby_config())
    dtf = traj_f.times[1] - traj_f.times[0]
    d2 = (traj_f.position[2:] - 2 * traj_f.position[1:-1] + traj_f.position[:-2]) / dtf**2
    fdev = np.abs(d2 - traj_f.force[1:-1]).max() / np.abs(traj_f.force).max()

    announce(10, "unitary dynamics and Ehrenfest laws",
             drift <= 1e-10 and dev_a <= 0.01 and fdev <= 0.05
             and 3.0 <= ratio <= 5.0,
             f"norm drift {drift:.2e} over 500 steps (tol 1e-10, slice residual "
             f"{slice_res:.2e}); velocity law {100 * dev_a:.3f}% (tol 1%); force law "
             f"{100 * fdev:.2f}% (tol 5%); halving dt improves the velocity law "
             f"{ratio:.2f}x (~4x)")


def test_criterion_11_sign_variant_negative_control():
    # the geometry suite's unitarity check on its own inputs (seed 42, 4000
    # samples), with the sign variant in place of the transport
    rng = np.random.default_rng(42)
    verify._positions(rng, 4000)
    xt, at = verify._sample_legs(rng, 4000, verify._TRANSPORT_PAIRS)
    unit = check_from_devs("transport-unitarity", "|w(a; x)| = 1",
                           np.abs(quat.qnorm(oracles.transport_sign_variant(at, xt)) - 1.0),
                           1e-12)
    # restricted to generically non-orthogonal pairs the defect exceeds 1e-2
    rng = np.random.default_rng(42)
    x, a = verify._sample_legs(rng, 4000, verify._TRANSPORT_PAIRS)
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(x + a, axis=1)
    ax = np.sum(a * x, axis=1)
    cosang = np.abs(ax) / (np.linalg.norm(a, axis=1) * nx)
    plain = ((nx**2 + ax) / (nx * ny) > -1.0) & ((nx**2 - ax) / (nx * ny) < 1.0)
    generic = plain & (cosang > 0.2) & (cosang < 0.98) & \
        (np.linalg.norm(a, axis=1) > 0.3 * ny)
    dev = np.abs(quat.qnorm(oracles.transport_sign_variant(a[generic], x[generic])) ** 2 - 1.0)
    announce(11, "sign-variant transport fails unitarity (negative control)",
             (not unit.passed) and unit.max_dev >= 1e-2 and dev.min() >= 1e-2,
             f"suite unitarity check fails with deviation {unit.max_dev:.2e} "
             f">= 1e-2; every generic non-orthogonal pair deviates by at least "
             f"{dev.min():.2e}")
