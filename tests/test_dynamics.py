import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from qmono import dynamics, geometry, hilbert, operators as ops, quat, splitting
from qmono.hilbert import LatticeField, LatticeSpec

SPEC = LatticeSpec(n=16, box=4.0)


def _frame_cols(spec, vals):
    """Columns (f1, f2) of psi = q (f1 + f2 e1) in the gauge q = slice_frame(x, e3)."""
    q = geometry.slice_frame(spec.points(), quat.E3)
    f = quat.qmul(quat.qconj(q), vals).reshape(-1, 4)
    return np.stack([f[:, 0] + 1j * f[:, 3], f[:, 1] + 1j * f[:, 2]], axis=-1)


def _anti_hermitian_defect(mat, rng):
    u, w = (rng.standard_normal((mat.shape[0], 2)) + 1j * rng.standard_normal((mat.shape[0], 2))
            for _ in range(2))
    uaw = np.vdot(u, mat @ w)
    return abs(uaw + np.conj(np.vdot(w, mat @ u))) / abs(uaw)


def packet(spec=SPEC, center=(-1.2, 1.0, 0.4), sigma=0.5, kick=(0.8, 0.0, 0.0)):
    return dynamics.gaussian_packet(spec, center, sigma, kick)


def test_packet_is_normalized_slice_member():
    psi = packet()
    s = splitting.default_slice()
    assert hilbert.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert splitting.slice_residual(psi, s) < 1e-13


def test_slice_frame_intertwines():
    pts = SPEC.points()
    for omega in (quat.E3, quat.imaginary_unit([1.0, 2.0, -0.5])):
        q = geometry.slice_frame(pts, omega)
        assert np.abs(quat.qnorm(q) - 1.0).max() < 1e-12
        dev = quat.qmul(geometry.dirq(pts), q) - quat.qmul(q, omega)
        assert quat.qnorm(dev).max() < 1e-12


def test_slice_frame_near_the_singular_ray():
    # directions 1e-4 .. 1e-2 rad from the ray opposite to omega: the frame
    # stays unit and intertwining to rounding, without cancellation in 1 + cos
    omega = quat.imaginary_unit([1.0, 2.0, -0.5])
    w = omega[1:]
    perp = np.cross(w, [1.0, 0.0, 0.0])
    perp /= np.linalg.norm(perp)
    pts = np.array([-np.cos(a) * w + np.sin(a) * perp for a in (1e-4, 1e-3, 1e-2)])
    q = geometry.slice_frame(pts, omega)
    assert np.abs(quat.qnorm(q) - 1.0).max() < 1e-12
    dev = quat.qmul(geometry.dirq(pts), q) - quat.qmul(q, omega)
    assert quat.qnorm(dev).max() < 1e-11


def test_slice_frame_rejects_the_singular_ray():
    # the sites (-a, -a, -a) lie on the ray opposite to the slice axis
    with pytest.raises(geometry.DomainError):
        dynamics.gaussian_packet(SPEC, (-1.2, 1.0, 0.4), 0.5, (0.8, 0.0, 0.0),
                                 omega=quat.imaginary_unit([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("n, box", [(16, 4.0), (48, 6.0)])
def test_frame_links_are_u1_phases(n, box):
    # in the gauge q = slice_frame(x, e3) every link q(x)* plus(x) q(x+h)
    # lies in span{1, e3}; the builders drop the e1 and e2 components
    spec = LatticeSpec(n=n, box=box)
    q = geometry.slice_frame(spec.points(), quat.E3)
    for ax in range(3):
        plus = ops._hop_links(spec, ax)
        here, there = [slice(None)] * 3, [slice(None)] * 3
        here[ax], there[ax] = slice(None, -1), slice(1, None)
        here, there = tuple(here), tuple(there)
        z = quat.qmul(quat.qconj(q[here]), quat.qmul(plus[here], q[there]))
        assert np.abs(z[..., 1:3]).max() < 1e-13


def _neighbor(v, axis, direction):
    """v(x + direction h e_axis), zero beyond the walls."""
    out = np.zeros_like(v)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if direction > 0:
        dst[axis], src[axis] = slice(None, -1), slice(1, None)
    else:
        dst[axis], src[axis] = slice(1, None), slice(None, -1)
    out[tuple(dst)] = v[tuple(src)]
    return out


def _reference_ops(spec, mass):
    """v -> (H v, [grad_i v], J H v) by zero-filled slicing, with links
    taken straight from geometry.transport; shares no code with operators."""
    pts, h = spec.points(), spec.step
    links = [(geometry.transport(-h * e, pts + h * e), geometry.transport(h * e, pts - h * e))
             for e in np.eye(3)]
    j = geometry.dirq(pts)

    def apply(v):
        hops = [(quat.qmul(plus, _neighbor(v, ax, +1)), quat.qmul(minus, _neighbor(v, ax, -1)))
                for ax, (plus, minus) in enumerate(links)]
        h_ref = (-6.0 * v + sum(p + m for p, m in hops)) / (-2.0 * mass * h**2)
        return h_ref, [(p - m) / (2.0 * h) for p, m in hops], quat.qmul(j, h_ref)

    return apply


def test_link_operators_match_numpy_reference():
    # the operators act on quaternion values, the matrices in the slice frame
    rng = np.random.default_rng(0)
    v = rng.standard_normal((SPEC.n,) * 3 + (4,))
    mass = 1.4
    h_ref, grad_ref, jh_ref = _reference_ops(SPEC, mass)(v)

    def check(got, ref):
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()

    vf = _frame_cols(SPEC, v)
    h_mat = dynamics.build_hamiltonian_matrix(SPEC, mass)
    check(h_mat @ vf, _frame_cols(SPEC, h_ref))
    check(ops.hamiltonian(SPEC, mass).apply_values(v), h_ref)
    for ax, g_mat in enumerate(dynamics.build_gradient_matrices(SPEC)):
        check(g_mat @ vf, _frame_cols(SPEC, grad_ref[ax]))
        check(ops.covderiv(SPEC, np.eye(3)[ax]).apply_values(v), grad_ref[ax])
    a_mat = dynamics.build_generator_matrix(SPEC, mass)
    check(a_mat @ vf, _frame_cols(SPEC, jh_ref))
    # i H exactly anti-hermitian up to rounding
    assert _anti_hermitian_defect(a_mat, rng) < 1e-12


def test_zero_dt_step_is_identity():
    psi = packet()
    out = dynamics.CayleyEvolver(SPEC, mass=1.0, dt=0.0).step(psi)
    assert np.array_equal(out.values, psi.values)
    assert out.values is not psi.values


GOOD = dict(center=(-1.2, 1.0, 0.4), sigma=0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, mass=0.0, **GOOD)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, dt=-0.1, **GOOD)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, steps=-1, **GOOD)
    # packet support must clear the monopole and the walls by 3 sigma
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, center=(0.0, 0.0, 1.0), sigma=0.5)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, center=(-3.5, 0.0, 0.0), sigma=0.5)


def test_step_norm_and_slice_preservation():
    psi = packet()
    s = splitting.default_slice()
    ev = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    cur = psi
    for _ in range(50):
        cur = ev.step(cur)
    assert abs(hilbert.norm(cur) - 1.0) < 1e-11
    assert splitting.slice_residual(cur, s) < 1e-10
    # the state actually moved
    assert np.abs(cur.values - psi.values).max() > 1e-3


def test_step_commutes_with_j():
    psi = packet()
    j = ops.jop(SPEC)
    ev = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    lhs = ev.step(j(psi))
    rhs = j(ev.step(psi))
    assert np.abs(lhs.values - rhs.values).max() < 1e-11


@pytest.mark.parametrize("dt", [0.05, -0.05])
def test_cayley_steps_match_dense_quaternion_solve(dt):
    # oracle without the slice frame: the real 4n^3 matrix of J H from the
    # quaternion reference stencil applied to basis vectors, and a dense solve
    spec = LatticeSpec(n=6, box=3.0)
    mass = 1.3
    reference = _reference_ops(spec, mass)
    shape = (spec.n,) * 3 + (4,)
    basis = np.eye(int(np.prod(shape)))
    jh = np.column_stack([reference(e.reshape(shape))[2].ravel() for e in basis])
    m = 0.5 * dt * jh
    rng = np.random.default_rng(3)
    psi = LatticeField(spec, rng.standard_normal(shape))  # both slice components
    ev = dynamics.CayleyEvolver(spec, mass, dt)
    ref, cur = psi.values.ravel(), psi
    for _ in range(2):  # the second step starts from the warm-start guess
        ref = np.linalg.solve(basis + m, ref - m @ ref)
        cur = ev.step(cur)
        assert np.abs(cur.values.ravel() - ref).max() < 1e-12 * np.abs(ref).max()


def test_cayley_steps_converge_to_exact_propagator():
    # second order against exp(-i T H) in the slice frame (Al-Mohy-Higham)
    spec = LatticeSpec(n=24, box=6.0)
    mass, total = 1.0, 0.4
    psi0 = dynamics.gaussian_packet(spec, (-1.5, 1.5, 1.5), 0.85, (0.6, 0.0, 0.0))
    f0 = _frame_cols(spec, psi0.values)
    exact = expm_multiply(-1j * total * dynamics.build_hamiltonian_matrix(spec, mass), f0)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        ev = dynamics.CayleyEvolver(spec, mass, dt)
        cur = psi0
        for _ in range(round(total / dt)):
            cur = ev.step(cur)
        errs.append(np.linalg.norm(_frame_cols(spec, cur.values) - exact) / np.linalg.norm(exact))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(3.0 <= r <= 5.0 for r in ratios), (errs, ratios)


def test_evolver_records_cg_iterations_per_step():
    cfg = dynamics.free_flight_config(n=16, steps=5)
    ev = dynamics.CayleyEvolver(cfg.lattice, cfg.mass, cfg.dt, cfg.solver_rtol)
    cur = dynamics.gaussian_packet(cfg.lattice, cfg.center, cfg.sigma, cfg.kick)
    for _ in range(cfg.steps):
        cur = ev.step(cur)
    assert len(ev.cg_iters) == cfg.steps
    assert all(isinstance(k, int) and k > 0 for k in ev.cg_iters)


def test_time_reversibility():
    psi = packet()
    fwd = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    bwd = dynamics.CayleyEvolver(SPEC, 1.0, -0.05)
    cur = psi
    for _ in range(25):
        cur = fwd.step(cur)
    for _ in range(25):
        cur = bwd.step(cur)
    assert np.abs(cur.values - psi.values).max() < 1e-10


def test_evolve_trajectory_and_csv(tmp_path):
    cfg = dynamics.EvolutionConfig(lattice=SPEC, dt=0.05, steps=20,
                                   center=(-1.2, 1.0, 0.4), sigma=0.5,
                                   kick=(0.8, 0.0, 0.0), record_force=True)
    traj, final = dynamics.evolve(cfg)
    assert len(traj.times) == 21
    assert traj.position.shape == (21, 3)
    assert traj.force.shape == (21, 3)
    assert np.abs(traj.norm - 1.0).max() < 1e-11
    # energy conserved well by the unitary step
    assert np.abs(traj.energy - traj.energy[0]).max() < 1e-3 * abs(traj.energy[0])
    # the packet drifts along the kick
    assert traj.position[-1, 0] > traj.position[0, 0] + 0.3

    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (21, 9)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,v1,v2,v3,norm,energy"
    assert np.allclose(data[:, 0], traj.times, atol=0)
    assert np.allclose(data[:, 1:4], traj.position, atol=1e-12)


def test_evolve_zero_steps():
    cfg = dynamics.EvolutionConfig(lattice=SPEC, dt=0.05, steps=0, **GOOD)
    traj, _ = dynamics.evolve(cfg)
    assert len(traj.times) == 1


def test_ehrenfest_velocity_small_lattice():
    cfg = dynamics.EvolutionConfig(lattice=LatticeSpec(n=24, box=6.0),
                                   dt=0.05, steps=40,
                                   center=(-1.5, 1.5, 1.5), sigma=0.85,
                                   kick=(0.6, 0.0, 0.0), record_force=False)
    traj, _ = dynamics.evolve(cfg)
    rep = dynamics.ehrenfest(traj, tol_velocity=0.01)
    assert rep.passed


def test_ehrenfest_requires_samples():
    traj = dynamics.Trajectory(times=np.array([0.0, 0.1]),
                               position=np.zeros((2, 3)),
                               velocity=np.zeros((2, 3)),
                               norm=np.ones(2), energy=np.zeros(2))
    with pytest.raises(ValueError):
        dynamics.ehrenfest(traj)


def test_static_symmetric_packet():
    # no kick, centered on the slice axis: the initial velocity vanishes and
    # the axisymmetry (a four-fold lattice symmetry here) pins the
    # transverse position exactly; only axial motion can develop
    cfg = dynamics.EvolutionConfig(lattice=SPEC, dt=0.05, steps=10,
                                   center=(0.0, 0.0, 1.75), sigma=0.5,
                                   kick=(0.0, 0.0, 0.0), record_force=False)
    traj, _ = dynamics.evolve(cfg)
    assert np.abs(traj.velocity[0]).max() < 1e-12
    transverse = np.abs(traj.position[:, :2] - traj.position[0, :2]).max()
    assert transverse < 1e-12


def test_force_observable_against_operator_oracle():
    spec = LatticeSpec(n=16, box=4.0)
    mass = 1.3
    psi = dynamics.gaussian_packet(spec, (-1.2, 1.6, 0.3), 0.6, (1.0, 0.0, 0.0))
    obs = dynamics._Observables(spec, mass, with_force=True)
    _, _, _, frc = obs.row(psi)

    AX = np.eye(3)
    j = ops.jop(spec)
    v_ops = [ops.Scaled(-1.0 / mass, ops.Compose((j, ops.covderiv(spec, AX[i]))))
             for i in range(3)]
    b_ops = [ops.bfield_op(spec, k) for k in range(3)]
    for i in range(3):
        jj, kk = (i + 1) % 3, (i + 2) % 3
        sym = (ops.Compose((v_ops[jj], b_ops[kk])) + ops.Compose((b_ops[kk], v_ops[jj]))
               - ops.Compose((v_ops[kk], b_ops[jj])) - ops.Compose((b_ops[jj], v_ops[kk])))
        ref = ops.expectation(ops.Scaled(0.5 / mass, sym), psi)
        assert frc[i] == pytest.approx(ref, abs=1e-13)


def test_force_observable_classical_limit():
    # far from the monopole the force expectation is v x B(<x>) / m
    spec = LatticeSpec(n=32, box=6.0)
    mass = 2.0
    psi = dynamics.gaussian_packet(spec, (-0.7, 2.6, 0.0), 0.7, (2.4, 0.0, 0.0))
    obs = dynamics._Observables(spec, mass, with_force=True)
    pos, vel, _, frc = obs.row(psi)
    classical = np.cross(vel, geometry.bfield(np.asarray(pos))) / mass
    assert np.abs(np.asarray(frc) - classical).max() < 0.1 * np.abs(classical).max()
