import dataclasses
import threading

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

import oracles
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
    assert hilbert.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert splitting.slice_residual(psi) < 1e-13


def test_slice_frame_intertwines():
    pts = SPEC.points()
    v = np.array([1.0, 2.0, -0.5])
    for omega in (quat.E3, quat.from_vector(v / np.linalg.norm(v))):
        q = geometry.slice_frame(pts, omega)
        assert np.abs(quat.qnorm(q) - 1.0).max() < 1e-12
        dev = quat.qmul(geometry.dirq(pts), q) - quat.qmul(q, omega)
        assert quat.qnorm(dev).max() < 1e-12


def test_slice_frame_near_the_singular_ray():
    # directions 1e-4 .. 1e-2 rad from the ray opposite to omega: the frame
    # stays unit and intertwining to rounding, without cancellation in 1 + cos
    v = np.array([1.0, 2.0, -0.5])
    omega = quat.from_vector(v / np.linalg.norm(v))
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
    v = np.ones(3)
    with pytest.raises(geometry.DomainError):
        dynamics.gaussian_packet(SPEC, (-1.2, 1.0, 0.4), 0.5, (0.8, 0.0, 0.0),
                                 omega=quat.from_vector(v / np.linalg.norm(v)))


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
        check(ops.covderiv(SPEC, ax).apply_values(v), grad_ref[ax])
    a_mat = dynamics.build_generator_matrix(SPEC, mass)
    check(a_mat @ vf, _frame_cols(SPEC, jh_ref))
    # i H exactly anti-hermitian up to rounding
    assert _anti_hermitian_defect(a_mat, rng) < 1e-12


def test_zero_dt_step_is_identity():
    # the identity on frame columns, bit for bit, returned like every other
    # step: as a read-only frame field
    ev = dynamics.CayleyEvolver(SPEC, mass=1.0, dt=0.0)
    psi = packet()
    out = ev.step(psi)
    assert isinstance(out, ops._FrameField)
    assert np.array_equal(out.cols, ops._frame_cols(psi))
    # a plain field's values come back through the frame, to roundoff
    assert np.abs(out.values - psi.values).max() < 1e-15 * np.abs(psi.values).max()
    with pytest.raises(ValueError):
        out.values *= 2.0
    # a frame field's values are formed from the same columns, bit for bit
    again = ev.step(out)
    assert np.array_equal(again.values, out.values)
    with pytest.raises(ValueError):
        again.cols[0] = 0.0
    assert ev.cg_iters == [0, 0]


GOOD = dict(center=(-1.2, 1.0, 0.4), sigma=0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, mass=0.0, **GOOD)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, dt=-0.1, **GOOD)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, steps=-1, **GOOD)
    # dt = 0 only without steps: a run of identity steps has no time axis
    with pytest.raises(ValueError, match="dt must be positive"):
        dynamics.EvolutionConfig(lattice=SPEC, dt=0.0, steps=4, **GOOD)
    assert dynamics.EvolutionConfig(lattice=SPEC, dt=0.0, steps=0, **GOOD).steps == 0
    # the packet's center and kick are three finite numbers each
    for bad in (dict(center=(np.nan, 1.0, 0.4)), dict(center=(-1.2, 1.0)),
                dict(kick=(np.inf, 0.0, 0.0)), dict(kick=(np.nan, 0.0, 0.0)),
                dict(kick=(0.5, 0.0, 0.0, 0.0))):
        with pytest.raises(ValueError, match="three finite numbers"):
            dynamics.EvolutionConfig(lattice=SPEC, **{**GOOD, **bad})
    # packet support must clear the monopole and the walls by 3 sigma
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, center=(0.0, 0.0, 1.0), sigma=0.5)
    with pytest.raises(ValueError):
        dynamics.EvolutionConfig(lattice=SPEC, center=(-3.5, 0.0, 0.0), sigma=0.5)


def test_step_norm_and_slice_preservation():
    psi = packet()
    ev = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    cur = psi
    for _ in range(50):
        cur = ev.step(cur)
    assert abs(hilbert.norm(cur) - 1.0) < 1e-11
    assert splitting.slice_residual(cur) < 1e-10
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


def _anti_hermitian(n, norm, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = g - g.conj().T
    return s * (norm / np.linalg.norm(s, 2))


def _counted_cg(*args, **kwargs):
    calls = []
    x, info = dynamics.cg(*args, callback=lambda xk: calls.append(1), **kwargs)
    return x, info, len(calls)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("warm", [False, True])
def test_cg_matches_dense_solve_of_identity_plus_anti_hermitian(k, warm):
    rng = np.random.default_rng(11 + k)
    n, rtol = 180, 1e-10
    s = _anti_hermitian(n, 3.0, rng)
    b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    exact = np.linalg.solve(np.eye(n) + s, b)
    x0 = exact + 0.1 * rng.standard_normal((n, k)) if warm else None
    start = None if x0 is None else x0.copy()
    x, info, iters = _counted_cg(s, b, x0=x0, rtol=rtol)
    assert info == 0 and 0 < iters < n
    assert x.shape == b.shape
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(b - x - s @ x) <= rtol * bnorm
    # (I + s)^-1 has norm at most 1: the error is bounded by the residual
    assert np.linalg.norm(x - exact) <= rtol * bnorm
    if warm:  # the start is copied, not overwritten
        assert np.array_equal(x0, start)
    else:  # no start is the zero start, bit for bit
        x_zero, info_zero, iters_zero = _counted_cg(s, b, x0=np.zeros_like(b), rtol=rtol)
        assert (info_zero, iters_zero) == (info, iters) and np.array_equal(x_zero, x)


def test_cg_exits_after_one_iteration_on_an_eigenvector():
    # b an eigenvector of s, eigenvalue i lam: the Krylov space is one-dimensional,
    # and the first iterate b / (1 + i lam) is the answer
    rng = np.random.default_rng(7)
    n = 60
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = np.linspace(-4.0, 4.0, n)
    s = (q * (1j * lam)) @ q.conj().T
    for j in (0, 17, n - 1):
        b = q[:, j:j + 1]
        x, info, iters = _counted_cg(s, b, rtol=1e-12)
        assert (info, iters) == (0, 1)
        assert np.all(np.isfinite(x))
        assert np.abs(x - b / (1.0 + 1j * lam[j])).max() <= 1e-14


def test_cg_zero_right_hand_side_and_iteration_limit():
    rng = np.random.default_rng(9)
    s = _anti_hermitian(100, 3.0, rng)
    x0 = rng.standard_normal((100, 2)) + 0j
    x, info, iters = _counted_cg(s, np.zeros((100, 2), complex), x0=x0, rtol=1e-12)
    assert (info, iters) == (0, 0)
    assert x.shape == (100, 2) and not x.any()
    b = rng.standard_normal((100, 1)) + 1j * rng.standard_normal((100, 1))
    x, info, iters = _counted_cg(s, b, rtol=1e-12, maxiter=3)
    assert info == 3 and iters == 3
    assert np.linalg.norm(b - x - s @ x) > 1e-12 * np.linalg.norm(b)


def test_evolver_records_cg_iterations_per_step():
    cfg = dynamics.free_flight_config(n=16, steps=5)
    ev = dynamics.CayleyEvolver(cfg.lattice, cfg.mass, cfg.dt, cfg.solver_rtol)
    cur = dynamics.gaussian_packet(cfg.lattice, cfg.center, cfg.sigma, cfg.kick)
    for _ in range(cfg.steps):
        cur = ev.step(cur)
    assert len(ev.cg_iters) == cfg.steps
    assert all(isinstance(k, int) and k > 0 for k in ev.cg_iters)


@pytest.mark.parametrize("k", [1, 2])
def test_frame_columns_round_trip(k):
    rng = np.random.default_rng(5)
    q = ops._slice_gauge(SPEC)[0]
    cols = rng.standard_normal((SPEC.n**3, k)) + 1j * rng.standard_normal((SPEC.n**3, k))
    back = ops._to_cols(q, ops._from_cols(q, cols))
    assert back.shape == (SPEC.n**3, 2)
    assert np.abs(back[:, :k] - cols).max() < 1e-14 * np.abs(cols).max()
    assert np.abs(back[:, k:]).max(initial=0.0) < 1e-15 * np.abs(cols).max()


def test_step_output_is_read_only():
    # a step's output keeps its frame columns for the next step, so
    # an in-place write to the output would go unseen: it is refused
    ev = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    out = ev.step(packet())
    with pytest.raises(ValueError):
        out.values *= 2.0
    # a field converted but not built from frame columns is converted afresh
    psi = packet()
    ops._frame_cols(psi)
    psi.values *= 2.0
    assert hilbert.norm(ev.step(psi)) == pytest.approx(2.0, rel=1e-11)


def test_step_rejects_a_field_of_another_lattice():
    ev = dynamics.CayleyEvolver(SPEC, 1.0, 0.05)
    with pytest.raises(ValueError, match="does not match the evolver"):
        ev.step(hilbert.constant(LatticeSpec(n=12, box=SPEC.box), quat.E0))
    # a frame field of the same n on another box has columns of the right
    # size, and _frame_cols trusts its spec: only the lattice check refuses it
    cols = ops._frame_cols(packet())
    with pytest.raises(ValueError, match="does not match the evolver"):
        ev.step(ops._FrameField(LatticeSpec(n=SPEC.n, box=2.0 * SPEC.box), cols))
    assert ev.cg_iters == []


def test_observables_row_rejects_a_field_of_another_lattice():
    obs = dynamics._Observables(dynamics.CayleyEvolver(SPEC, 1.0, 0.0), with_force=True)
    with pytest.raises(ValueError, match="does not match the evolver"):
        obs.row(hilbert.constant(LatticeSpec(n=12, box=SPEC.box), quat.E0))
    # columns of the right size on a box twice as large would report the
    # evolver lattice's positions: only the lattice check refuses them
    cols = ops._frame_cols(packet())
    with pytest.raises(ValueError, match="does not match the evolver"):
        obs.row(ops._FrameField(LatticeSpec(n=SPEC.n, box=2.0 * SPEC.box), cols))


def test_one_column_step_matches_two_column_step_with_zero_f2():
    f1 = _frame_cols(SPEC, packet().values)[:, 0]
    one, two = (dynamics.CayleyEvolver(SPEC, 1.0, 0.05) for _ in range(2))
    a = ops._FrameField(SPEC, f1[:, None].copy())
    b = ops._FrameField(SPEC, np.column_stack([f1, np.zeros_like(f1)]))
    for _ in range(3):  # the later steps start from the warm-start guess
        a, b = one.step(a), two.step(b)
        fa, fb = ops._frame_cols(a), ops._frame_cols(b)
        assert fa.shape[1] == 1 and fb.shape[1] == 2
        assert np.abs(fa[:, 0] - fb[:, 0]).max() < 1e-12 * np.abs(fb).max()
        assert np.abs(fb[:, 1]).max() == 0.0
        assert np.abs(a.values - b.values).max() < 1e-12 * np.abs(b.values).max()


@pytest.mark.parametrize("preset", ["free_flight_config", "monopole_flyby_config"])
@pytest.mark.parametrize("n", [16, 32, 48])
def test_preset_packets_have_no_second_frame_column(preset, n):
    cfg = getattr(dynamics, preset)(n=n)
    psi = dynamics.gaussian_packet(cfg.lattice, cfg.center, cfg.sigma, cfg.kick)
    f = _frame_cols(cfg.lattice, psi.values)
    assert np.linalg.norm(f[:, 1]) <= 1e-15 * np.linalg.norm(f[:, 0])
    # evolve builds the same packet directly as the one column f1
    _, start = dynamics.evolve(dataclasses.replace(cfg, steps=0))
    assert np.abs(start.values - psi.values).max() <= 1e-14 * np.abs(psi.values).max()


@pytest.mark.parametrize("preset", ["free_flight_config", "monopole_flyby_config"])
def test_evolve_matches_a_two_column_step_loop(preset, monkeypatch):
    cfg = getattr(dynamics, preset)(n=16, steps=10)
    sizes = []
    real_cg = dynamics.cg

    def sized_cg(a, b, **kwargs):
        sizes.append(b.size)
        return real_cg(a, b, **kwargs)

    monkeypatch.setattr(dynamics, "cg", sized_cg)
    traj, final = dynamics.evolve(cfg)

    spec = cfg.lattice
    ev = dynamics.CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
    obs = dynamics._Observables(ev, cfg.record_force)
    psi = dynamics.gaussian_packet(spec, cfg.center, cfg.sigma, cfg.kick)
    ref = {name: [] for name in ("position", "velocity", "norm", "energy", "force")}
    for step in range(cfg.steps + 1):
        if step:
            psi = ev.step(psi)
        pos, vel, _, en, frc = obs.row(psi)
        for name, val in zip(ref, (pos, vel, hilbert.norm(psi), en, frc)):
            ref[name].append(val)
    # evolve solved on the one column f1, the loop on both columns
    assert sizes == [spec.n**3] * cfg.steps + [2 * spec.n**3] * cfg.steps
    assert traj.cg_iters.tolist() == ev.cg_iters

    # relative to each observable's scale: a component that stays far below
    # the others (the flyby's <X_3>) only sees roundoff of the whole vector
    for name, rows in ref.items():
        got = getattr(traj, name)
        if got is None:  # forces not recorded
            assert rows[0] is None
            continue
        want = np.asarray(rows)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max()), name
    assert np.abs(final.values - psi.values).max() <= 1e-13 * np.abs(psi.values).max()


@pytest.mark.parametrize("preset", ["free_flight_config", "monopole_flyby_config"])
def test_evolve_matches_a_one_column_step_loop_bit_for_bit(preset):
    cfg = getattr(dynamics, preset)(n=16, steps=10)
    traj, final = dynamics.evolve(cfg)

    ev = dynamics.CayleyEvolver(cfg.lattice, cfg.mass, cfg.dt, cfg.solver_rtol)
    obs = dynamics._Observables(ev, cfg.record_force)
    _, start = dynamics.evolve(dataclasses.replace(cfg, steps=0))
    psi = ops._FrameField(cfg.lattice, ops._frame_cols(start))  # the normalized packet column f1
    fields, rows = [psi], [obs.row(psi)]
    for _ in range(cfg.steps):
        psi = ev.step(psi)
        fields.append(psi)
        rows.append(obs.row(psi))
    pos, vel, nrm, en, frc = (np.asarray(col) for col in zip(*rows))
    assert np.array_equal(traj.position, pos)
    assert np.array_equal(traj.velocity, vel)
    assert np.array_equal(traj.energy, en)
    assert np.array_equal(traj.norm, nrm)
    if cfg.record_force:
        assert np.array_equal(traj.force, frc)
    else:
        assert traj.force is None
    assert traj.cg_iters.tolist() == ev.cg_iters
    assert np.array_equal(final.values, psi.values)
    # the norm column is read from the frame density, not from the quaternion values
    ref = np.array([hilbert.norm(f) for f in fields])
    assert np.all(np.abs(traj.norm - ref) <= 1e-15 * ref)


def test_evolve_builds_once_and_forms_values_only_when_read(monkeypatch):
    cfg = dynamics.monopole_flyby_config(n=16, steps=6)
    calls = {"hamiltonian": 0, "step": 0, "from_cols": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ops, "hamiltonian", counted("hamiltonian", ops.hamiltonian))
    monkeypatch.setattr(ops, "_from_cols", counted("from_cols", ops._from_cols))
    monkeypatch.setattr(dynamics.CayleyEvolver, "step",
                        counted("step", dynamics.CayleyEvolver.step))
    traj, final = dynamics.evolve(cfg)
    assert calls == {"hamiltonian": 1, "step": cfg.steps, "from_cols": 0}
    vals = final.values
    assert calls["from_cols"] == 1
    assert final.values is vals and not vals.flags.writeable
    assert calls["from_cols"] == 1
    assert len(traj.times) == cfg.steps + 1


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("preset", ["free_flight_config", "monopole_flyby_config"])
def test_evolve_matches_the_step_loop_on_one_and_two_cores(preset, cores, monkeypatch):
    # one core: every row in the calling thread; two: every row on the worker
    threads = []
    real_row = dynamics._Observables.row

    def located_row(self, psi):
        threads.append(threading.get_ident())
        return real_row(self, psi)

    monkeypatch.setattr(dynamics, "_cores", lambda: cores)
    monkeypatch.setattr(dynamics._Observables, "row", located_row)
    before = threading.active_count()
    test_evolve_matches_a_one_column_step_loop_bit_for_bit(preset)
    assert threading.active_count() == before
    # the test runs evolve twice (10 and 0 steps), then its own 11-row loop
    evolve_rows, loop_rows = threads[:12], threads[12:]
    assert len(evolve_rows) == 12 and set(loop_rows) == {threading.get_ident()}
    in_caller = [t == threading.get_ident() for t in evolve_rows]
    assert all(in_caller) if cores == 1 else not any(in_caller)


@pytest.mark.parametrize("cores", [1, 2])
def test_no_row_worker_outlives_a_failed_step(cores, monkeypatch):
    monkeypatch.setattr(dynamics, "_cores", lambda: cores)
    monkeypatch.setattr(dynamics, "cg", lambda a, b, **kwargs: (b, 1))
    cfg = dynamics.monopole_flyby_config(n=16, steps=4)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="did not converge"):
        dynamics.evolve(cfg)
    assert threading.active_count() == before


def _three_gradient_row(obs, psi):
    """The observables row as it was before it held one gradient at a time:
    all three gradients, then the force terms, each ``B_k f`` formed once."""
    f = ops._frame_cols(psi)
    dens = np.sum(f.real**2 + f.imag**2, axis=-1)
    nsq = float(dens.sum() * obs.cell)
    scale = obs.cell / (obs.mass * nsq)
    pos = [float((c * dens).sum() * obs.cell / nsq) for c in obs.coords]
    grads = [g @ f for g in obs.grad_mats]
    # <-(J/m) grad_i> = Re vdot(f, -i g f) cell / m = Im vdot(f, g f) cell / m
    vel = [float(np.vdot(f, g).imag * scale) for g in grads]
    en = float(np.vdot(f, obs.h_mat @ f).real * obs.cell / nsq)
    frc = None
    if obs.with_force:
        # v_j and B_k are hermitian, so <v_j B_k + B_k v_j> = 2 Re<B_k psi, v_j psi>
        t = np.zeros((3, 3))
        for kk in range(3):
            bf = obs.bvals[kk][:, None] * f
            for jj in range(3):
                if jj != kk:
                    t[jj, kk] = 2.0 * np.vdot(bf, grads[jj]).imag * scale
        # acceleration law: eps_ijk (v_j B_k + B_k v_j) / 2m
        frc = [0.5 / obs.mass * (t[(i + 1) % 3, (i + 2) % 3] - t[(i + 2) % 3, (i + 1) % 3])
               for i in range(3)]
    return pos, vel, float(np.sqrt(nsq)), en, frc


def test_the_one_gradient_row_matches_the_three_gradient_row_bit_for_bit():
    cfg = dynamics.monopole_flyby_config(n=16, steps=4)
    ev = dynamics.CayleyEvolver(cfg.lattice, cfg.mass, cfg.dt, cfg.solver_rtol)
    obs = dynamics._Observables(ev, True)
    _, psi = dynamics.evolve(dataclasses.replace(cfg, steps=0))
    for step in range(cfg.steps + 1):
        if step:
            psi = ev.step(psi)
        got, want = obs.row(psi), _three_gradient_row(obs, psi)
        for name, a, b in zip(("position", "velocity", "norm", "energy", "force"), got, want):
            assert np.array_equal(a, b), (step, name)


def _observed_run(cfg, vals, columns):
    """Positions, velocities and forces of ``cfg.steps`` Cayley steps from
    the field ``vals``, stepped as its first ``columns`` frame columns."""
    spec = cfg.lattice
    ev = dynamics.CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
    obs = dynamics._Observables(ev, True)
    psi = ops._FrameField(spec, ops._frame_cols(LatticeField(spec, vals))[:, :columns])
    rows = [obs.row(psi)]
    for _ in range(cfg.steps):
        psi = ev.step(psi)
        rows.append(obs.row(psi))
    pos, vel, _, _, frc = zip(*rows)
    return np.asarray(pos), np.asarray(vel), np.asarray(frc)


def test_dynamics_through_the_dirac_string():
    # R: (x, y, z) -> (x, z, -y) permutes the sites and carries the flyby
    # path (-0.72, 2.5, 0) + t v onto (-0.72, 0, -2.5) + t v, straight
    # through the frame's singular ray x = y = 0, z < 0.  The quaternionic H
    # does not know the ray: with the spin lift r = qexp(-(pi/4) e1),
    # psi'(x) = r psi(R^-1 x) follows R x(t), only the wrong lift does not
    cfg = dynamics.monopole_flyby_config(n=32, steps=60)
    spec = cfg.lattice
    rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    _, psi = dynamics.evolve(dataclasses.replace(cfg, steps=0))
    moved = psi.values[:, ::-1].transpose(0, 2, 1, 3)  # psi(R^-1 x)
    assert np.array_equal(spec.points()[:, ::-1].transpose(0, 2, 1, 3) @ rot.T, spec.points())
    lift = quat.qexp(-0.25 * np.pi * quat.E1)
    wrong = quat.qexp(0.25 * np.pi * quat.E1)
    f = _frame_cols(spec, quat.qmul(lift, moved))
    assert np.linalg.norm(f[:, 1]) <= 1e-14 * np.linalg.norm(f[:, 0])  # still in the e3 slice

    want = [q @ rot.T for q in _observed_run(cfg, psi.values, 1)]
    got = _observed_run(cfg, quat.qmul(lift, moved), 1)
    for name, w, g in zip(("position", "velocity", "force"), want, got):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name
    # the wrong lift leaves the slice, so it is stepped as both columns
    miss, _, _ = _observed_run(cfg, quat.qmul(wrong, moved), 2)
    assert np.abs(miss - want[0]).max() > 1e-2


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
    rep = dynamics.ehrenfest(traj)
    assert rep.passed


def test_ehrenfest_requires_samples():
    traj = dynamics.Trajectory(times=np.array([0.0, 0.1]),
                               position=np.zeros((2, 3)),
                               velocity=np.zeros((2, 3)),
                               norm=np.ones(2), energy=np.zeros(2))
    with pytest.raises(ValueError):
        dynamics.ehrenfest(traj)
    # sample spacings that are not positive: a dt = 0 run, and time reversed
    for times in (np.zeros(5), -0.1 * np.arange(5)):
        traj = dynamics.Trajectory(times=times, position=np.zeros((5, 3)),
                                   velocity=np.zeros((5, 3)), norm=np.ones(5),
                                   energy=np.zeros(5))
        with pytest.raises(ValueError, match="positive sample spacing"):
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
    obs = dynamics._Observables(dynamics.CayleyEvolver(spec, mass, 0.0), with_force=True)
    _, _, _, _, frc = obs.row(psi)

    j = ops.jop(spec)
    v_ops = [ops.Scaled(-1.0 / mass, ops.Compose((j, ops.covderiv(spec, i))))
             for i in range(3)]
    b_ops = [ops.bfield_op(spec, k) for k in range(3)]
    for i in range(3):
        jj, kk = (i + 1) % 3, (i + 2) % 3
        sym = oracles.OpSum((
            ops.Compose((v_ops[jj], b_ops[kk])), ops.Compose((b_ops[kk], v_ops[jj])),
            ops.Scaled(-1.0, ops.Compose((v_ops[kk], b_ops[jj]))),
            ops.Scaled(-1.0, ops.Compose((b_ops[jj], v_ops[kk])))))
        ref = oracles.expectation(ops.Scaled(0.5 / mass, sym), psi)
        assert frc[i] == pytest.approx(ref, abs=1e-13)


def test_force_observable_classical_limit():
    # far from the monopole the force expectation is v x B(<x>) / m
    spec = LatticeSpec(n=32, box=6.0)
    mass = 2.0
    psi = dynamics.gaussian_packet(spec, (-0.7, 2.6, 0.0), 0.7, (2.4, 0.0, 0.0))
    obs = dynamics._Observables(dynamics.CayleyEvolver(spec, mass, 0.0), with_force=True)
    pos, vel, _, _, frc = obs.row(psi)
    classical = np.cross(vel, geometry.bfield(np.asarray(pos))) / mass
    assert np.abs(np.asarray(frc) - classical).max() < 0.1 * np.abs(classical).max()
