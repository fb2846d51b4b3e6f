import re

import numpy as np
import pytest

import oracles
from qmono import geometry, hilbert, operators as ops, quat, verify
from qmono.hilbert import Box, LatticeField, LatticeSpec

AX = np.eye(3)
AX_STEPS = np.eye(3, dtype=int)


@pytest.fixture(scope="module")
def spec():
    return LatticeSpec(n=16, box=4.0)


@pytest.fixture(scope="module")
def psi(spec):
    rng = np.random.default_rng(0)
    return LatticeField(spec, rng.standard_normal((spec.n,) * 3 + (4,)))


@pytest.fixture(scope="module")
def interior(spec, psi):
    return hilbert.project(Box.of((-2.0,) * 3, (2.0,) * 3), psi)


def smooth_field(spec, center=(1.2, 0.6, -0.5), width=0.8):
    def fn(x):
        env = np.exp(-np.sum((x - np.asarray(center)) ** 2, axis=-1) / (2 * width**2))
        return env[..., None] * np.array([1.0, 0.4, -0.2, 0.3])
    f = hilbert.sample(spec, fn)
    return LatticeField(spec, f.values / hilbert.norm(f))


def test_jop_properties(spec, psi):
    j = ops.jop(spec)
    assert np.abs(j(j(psi)).values + psi.values).max() < 1e-14
    assert abs(hilbert.norm(j(psi)) - hilbert.norm(psi)) < 1e-12
    phi = LatticeField(spec, np.roll(psi.values, 3, axis=0))
    lhs = hilbert.inner(phi, j(psi))
    rhs = hilbert.inner(j(phi), psi)
    assert np.abs(lhs + rhs).max() < 1e-12 * hilbert.norm(phi) * hilbert.norm(psi)


def test_position_and_left_unit(spec, psi):
    x1 = ops.position(spec, 0)
    out = x1(psi)
    assert np.abs(out.values - spec.points()[..., 0, None] * psi.values).max() == 0.0
    e1 = ops.left_unit(spec, 0)
    assert np.abs(e1(psi).values - quat.qmul(quat.E1, psi.values)).max() == 0.0
    # [X_i, J] = 0 up to roundoff
    j = ops.jop(spec)
    dev = x1(j(psi)).values - j(x1(psi)).values
    assert np.abs(dev).max() < 1e-14 * spec.box * np.abs(psi.values).max()


def test_shift_exactness(spec, psi):
    m = np.array([2, -1, 0])
    v = ops.Shift(spec, m)
    out = v(psi)
    assert np.array_equal(out.values[5, 5, 5], psi.values[3, 6, 5])
    # inverse undoes (interior data)
    back = ops.Shift(spec, -m)(out)
    core = (slice(3, -3),) * 3
    assert np.array_equal(back.values[core], psi.values[core])


def test_lattice_factories_reject_non_integer_steps(spec):
    # a float step vector is refused by dtype, whole values included: the
    # old float interface truncated (1.9, 0, 0) to a one-cell shift
    for steps in ([1.9, 0.0, 0.0], np.array([1.0, 0.0, 0.0]), [True, False, False]):
        for make in (lambda m: ops.Shift(spec, m), lambda m: ops.twisted_shift(spec, m),
                     lambda m: ops.compose_defect(spec, m, [0, 1, 0]),
                     lambda m: ops.compose_defect(spec, [0, 1, 0], m)):
            with pytest.raises(TypeError):
                make(steps)


@pytest.mark.parametrize("steps", [[1, 0], [1, 0, 0, 0], [[1, 0, 0]]])
def test_lattice_factories_reject_step_vectors_not_of_length_three(spec, steps):
    # [1, 0] used to shift two axes and leave the third, or fail to unpack
    message = re.escape(f"must have shape (3,), got shape {np.shape(steps)}")
    for make in (lambda m: ops.Shift(spec, m), lambda m: ops.twisted_shift(spec, m),
                 lambda m: ops.compose_defect(spec, m, [0, 1, 0]),
                 lambda m: ops.compose_defect(spec, [0, 1, 0], m)):
        with pytest.raises(ValueError, match=message):
            make(steps)


@pytest.mark.parametrize("other", [LatticeSpec(n=12, box=4.0), LatticeSpec(n=16, box=5.0)])
def test_operators_reject_a_field_of_another_lattice(spec, other):
    field = hilbert.constant(other, quat.E0)
    for op in (ops.jop(spec), ops.Shift(spec, [1, 0, 0]), ops.Diff(spec, 0),
               ops.hamiltonian(spec, 1.0), ops.twisted_shift(spec, [1, 0, 0])):
        with pytest.raises(ValueError, match="operator and field live on different lattices"):
            op(field)
    # a composite of factors on two lattices used to take the first one's
    # lattice and apply the other's symbol to it
    for make in (ops.Compose, oracles.OpSum):
        with pytest.raises(ValueError, match="composite factors live on different lattices"):
            make((ops.position(spec, 0), ops.position(other, 0)))


@pytest.mark.parametrize("axis", [-1, 3])
def test_axis_factories_reject_axes_outside_0_to_2(spec, axis):
    # -1 used to read the x_3 plane (position, bfield_op) or give e0
    # (left_unit); Diff differenced along axis 0 or across the components
    for make, name in ((ops.Diff, "Diff"), (ops.left_unit, "left_unit"),
                       (ops.position, "position"), (ops.bfield_op, "bfield_op"),
                       (oracles.rotgen, "left_unit"), (ops.covderiv, "covderiv")):
        with pytest.raises(ValueError, match=f"^{name} axis must be 0, 1 or 2, got {axis}$"):
            make(spec, axis)


def test_shift_imprimitivity_bit_exact(spec, psi):
    m = np.array([3, 1, -2])
    v = ops.Shift(spec, m)
    box = Box.of((-1.5, -2.0, -1.0), (1.0, 1.5, 2.0))
    lhs = v(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(m * spec.step), v(psi))
    assert np.array_equal(lhs.values, rhs.values)


def test_twisted_shift_unitary_and_covariant(spec, psi, interior):
    m = np.array([2, 1, 0])
    u = ops.twisted_shift(spec, m)
    assert abs(hilbert.norm(u(interior)) - hilbert.norm(interior)) < 1e-12
    box = Box.of((-1.0, -1.0, -1.0), (1.5, 2.0, 1.0))
    lhs = u(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(m * spec.step), u(psi))
    assert np.array_equal(lhs.values, rhs.values)


def test_twisted_shift_inadmissible_diagonal(spec):
    # steps (2,2,2): the site at -(3,3,3)h/2 transports through the origin
    with pytest.raises(geometry.DomainError):
        ops.twisted_shift(spec, [2, 2, 2])


def test_one_parameter_family(spec, interior):
    u = np.array([0, 1, 0])
    lhs = ops.twisted_shift(spec, 2 * u)(ops.twisted_shift(spec, 3 * u)(interior))
    rhs = ops.twisted_shift(spec, 5 * u)(interior)
    assert np.abs(lhs.values - rhs.values).max() < 1e-13


def test_compose_defect_symbol(spec, psi):
    ma = np.array([2, 0, 1])
    mb = np.array([0, 1, 0])
    defect = ops.compose_defect(spec, ma, mb)
    assert ops.is_pointwise(defect)
    core = ops.interior_mask(spec, 4)
    sym = ops.symbol_of(defect)
    want = geometry.multiplier(ma * spec.step, mb * spec.step, spec.points())
    assert quat.qnorm(sym - want)[core].max() < 1e-12
    assert np.abs(quat.qnorm(sym) - 1.0)[core].max() < 1e-12
    # multiplier property: applying the composite is left multiplication
    out = defect(psi)
    ref = quat.qmul(sym, psi.values)
    assert quat.qnorm(out.values - ref)[core].max() < 1e-12
    # commutes with projections bit-exactly
    box = Box.of((-2.0, -1.0, -2.0), (1.0, 2.0, 1.0))
    lhs = defect(hilbert.project(box, psi))
    rhs = hilbert.project(box, defect(psi))
    assert np.array_equal(lhs.values, rhs.values)


def test_wpr_structure(spec):
    # generic pair: nontrivial defect; parallel pair: trivial
    core = ops.interior_mask(spec, 5)
    gen = ops.symbol_of(ops.compose_defect(spec, [2, 0, 0], [0, 2, 0]))
    assert quat.qnorm(gen - quat.E0)[core].max() > 1e-3
    par = ops.symbol_of(ops.compose_defect(spec, [2, 0, 0], [1, 0, 0]))
    assert quat.qnorm(par - quat.E0)[core].max() < 1e-12


def test_net_shift_and_pointwise():
    spec = LatticeSpec(n=8, box=2.0)
    v = ops.Shift(spec, [1, 0, 0])
    assert not ops.is_pointwise(v)
    assert ops.is_pointwise(ops.jop(spec))
    comp = ops.Compose((v.adjoint(), ops.jop(spec), v))
    assert ops.is_pointwise(comp)
    assert ops.net_shift(ops.Diff(spec, 0)) is None


def test_connection_value():
    val = ops.connection_value(AX[0], np.array([0.0, 0.0, 1.0]))
    assert np.allclose(val, [0.0, 0.0, -0.5, 0.0], atol=0)
    # at every lattice site: e . (e1 cross x) / (2 |x|^2) = (-x3 e2 + x2 e3) / (2 |x|^2)
    pts = LatticeSpec(n=8, box=2.0).points()
    r2 = np.sum(pts * pts, axis=-1)
    want = np.zeros(pts.shape[:-1] + (4,))
    want[..., 2] = -pts[..., 2] / (2.0 * r2)
    want[..., 3] = pts[..., 1] / (2.0 * r2)
    assert np.abs(ops.connection_value(AX[0], pts) - want).max() < 1e-15


def test_covderiv_antihermitian(spec, interior):
    psi2 = LatticeField(spec, np.roll(interior.values, 2, axis=1))
    g = ops.covderiv(spec, 2)
    lhs = hilbert.inner(interior, g(psi2))
    rhs = hilbert.inner(g.adjoint()(interior), psi2)
    assert np.abs(lhs - rhs).max() < 1e-12 * hilbert.norm(interior) * hilbert.norm(psi2)
    # an axis index, not a direction: -1 would otherwise build a zero matrix
    with pytest.raises(ValueError):
        ops.covderiv(spec, -1)


def _buffer_nbytes(a):
    """Bytes of the allocation that ``a`` views, or of its own data."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("n", [8, 16])
def test_frame_matrices_hold_exactly_their_nonzeros(n):
    lat = LatticeSpec(n=n, box=4.0)
    for op in (ops.hamiltonian(lat, 1.3), *(ops.covderiv(lat, ax) for ax in range(3))):
        m = op.matrix
        assert np.count_nonzero(m.data) == m.nnz
        for arr in (m.data, m.indices):
            assert arr.size == m.nnz
            assert _buffer_nbytes(arr) == arr.nbytes


def test_hamiltonian_velocity_identity_exact(spec, psi):
    ham = ops.hamiltonian(spec, 1.7)
    for i in range(3):
        xi = ops.position(spec, i)
        comm = ham(xi(psi)).values - xi(ham(psi)).values
        target = (-1.0 / 1.7) * ops.covderiv(spec, i)(psi).values
        assert np.abs(comm - target).max() < 1e-12 * np.abs(target).max()


@pytest.mark.parametrize("lat", [LatticeSpec(n=12, box=4.0), LatticeSpec(n=16, box=4.0),
                                 LatticeSpec(n=14, box=7.3)])
def test_frame_operators_are_sums_of_twisted_shifts(lat):
    # H = -(1/(2 m h^2)) sum_i (U_i^+ + U_i^- - 2) and grad_i = (U_i^- - U_i^+)/2h
    # with U_i^+- = twisted_shift(+-e_i): the frame links and the twisted
    # shifts share only the transport formula.  Plain shifts miss H by ~0.1.
    rng = np.random.default_rng(lat.n)
    psi = LatticeField(lat, rng.standard_normal((lat.n,) * 3 + (4,)))
    mass, h = 1.3, lat.step
    ham = ops.hamiltonian(lat, mass)(psi).values

    def miss(shift):
        lap = sum(shift(e)(psi).values + shift(-e)(psi).values - 2.0 * psi.values
                  for e in AX_STEPS)
        return np.abs(-lap / (2.0 * mass * h**2) - ham).max() / np.abs(ham).max()

    assert miss(lambda m: ops.twisted_shift(lat, m)) < 1e-12
    assert miss(lambda m: ops.Shift(lat, m)) > 0.05
    for i, e in enumerate(AX_STEPS):
        grad = ops.covderiv(lat, i)(psi).values
        ref = (ops.twisted_shift(lat, -e)(psi).values
               - ops.twisted_shift(lat, e)(psi).values) / (2.0 * h)
        assert np.abs(ref - grad).max() < 1e-12 * np.abs(grad).max(), i


def test_hamiltonian_hermitian_and_mass(spec, psi):
    for mass in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ops.hamiltonian(spec, mass)
    ham = ops.hamiltonian(spec, 1.0)
    phi = LatticeField(spec, np.roll(psi.values, 1, axis=2))
    lhs = hilbert.inner(phi, ham(psi))[0]
    rhs = hilbert.inner(ham(phi), psi)[0]
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
    assert ham.adjoint() is ham


def test_hamiltonian_commutes_with_j_on_smooth(spec):
    field = smooth_field(spec)
    ham = ops.hamiltonian(spec, 1.0)
    j = ops.jop(spec)
    dev = ham(j(field)).values - j(ham(field)).values
    region = np.linalg.norm(spec.points(), axis=-1) >= 1.0
    scale = np.abs(ham(field).values).max()
    assert quat.qnorm(dev)[region].max() < 0.05 * scale


def test_bfield_op(spec):
    sym = ops.symbol_of(ops.bfield_op(spec, 2))
    k = np.argmin(np.abs(spec.axis() - 1.875))
    mid = spec.n // 2
    # pure multiplier by x3/(2 |x|^3)
    x = spec.points()[mid, mid, k]
    assert sym[mid, mid, k, 0] == pytest.approx(0.5 * x[2] / np.linalg.norm(x) ** 3, rel=1e-14)
    assert np.abs(sym[..., 1:]).max() == 0.0


def test_commutator_check_diagonal_zero():
    def fn(x):
        env = np.exp(-np.sum((x - np.array([1.5, 0.5, 0.0])) ** 2, axis=-1))
        return env[..., None] * np.array([0.5, 0.1, 0.0, -0.3])

    pts = np.array([[1.2, 0.4, 0.3], [1.8, 0.2, -0.4]])
    dev = ops.commutator_check(1, 1, fn, pts, h=0.02)
    assert dev.shape == (2,)
    assert dev.max() < 1e-12


def test_commutator_check_curvature_target():
    # at x = (0,0,1), i=1, j=2 the target multiplier is -dirq(x)/2
    assert geometry.curvature(np.array([0.0, 0.0, 1.0])).kappa[0, 1] == pytest.approx(-0.5)

    def fn(x):
        env = np.exp(-np.sum((x - np.array([0.0, 0.2, 1.1])) ** 2, axis=-1))
        return env[..., None] * np.array([1.0, 0.0, 0.2, -0.1])

    pts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 1.2]])
    dev1 = ops.commutator_check(0, 1, fn, pts, h=0.02)
    dev2 = ops.commutator_check(0, 1, fn, pts, h=0.01)
    assert dev1.shape == dev2.shape == (2,)
    assert dev1.max() < 2e-3
    assert dev1.max() / dev2.max() == pytest.approx(4.0, abs=0.5)


def test_rotation_exp_full_turn():
    def fn(x):
        env = np.exp(-np.sum((x - np.array([1.0, 0.5, 0.3])) ** 2, axis=-1))
        return env[..., None] * np.array([0.2, 1.0, -0.5, 0.7])

    rot = ops.rotation_exp_fn(fn, 2, 2.0 * np.pi)
    pts = np.array([[0.8, 0.7, 0.2], [1.3, 0.1, 0.5], [0.4, 1.1, 0.9]])
    dev = quat.qnorm(rot(pts) + fn(pts)) / quat.qnorm(fn(pts))
    assert dev.max() < 1e-12
    # half turn about e3 maps (x, y, z) -> (-x, -y, z) with spin phase -e3
    half = ops.rotation_exp_fn(fn, 2, np.pi)
    want = quat.qmul(quat.qexp(-0.5 * np.pi * quat.E3), fn(pts * np.array([-1.0, -1.0, 1.0])))
    assert quat.qnorm(half(pts) - want).max() < 1e-12


def test_rotgen_lattice_vs_analytic(spec):
    field = smooth_field(spec)
    m3 = oracles.rotgen(spec, 2)
    out = m3(field)
    fn_vals = ops.rotgen_fn(
        lambda x: np.exp(-np.sum((x - np.array([1.2, 0.6, -0.5])) ** 2, axis=-1) / (2 * 0.64))[..., None]
        * np.array([1.0, 0.4, -0.2, 0.3]),
        2, spec.step)(spec.points())
    fn_vals = fn_vals / hilbert.norm(hilbert.sample(spec, lambda x: np.exp(
        -np.sum((x - np.array([1.2, 0.6, -0.5])) ** 2, axis=-1) / (2 * 0.64))[..., None]
        * np.array([1.0, 0.4, -0.2, 0.3])))
    core = ops.interior_mask(spec, 2)
    assert quat.qnorm(out.values - fn_vals)[core].max() < 1e-10


@pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
def test_steps_admissible_matches_segment_distance(n):
    # every candidate |m_i| <= 4 against the segment-origin distance from
    # every site, with a float margin far below the lattice's h/(2|m|) gaps;
    # transport's own domain test must reject exactly the same shifts
    spec = LatticeSpec(n=n, box=3.0)
    pts = spec.points().reshape(-1, 3)
    r = np.linalg.norm(pts, axis=-1)
    for m in np.stack(np.meshgrid(*[np.arange(-4, 5)] * 3), axis=-1).reshape(-1, 3):
        y = pts + m * spec.step
        dist = geometry.segment_origin_distance(pts, y)
        clear = bool(np.all(dist > 1e-6 * np.maximum(r, np.linalg.norm(y, axis=-1))))
        assert ops._steps_admissible(spec, m) == clear, m
        # the whole-grid transport decides the same shifts
        try:
            geometry.transport(m * spec.step, spec.points())
        except geometry.DomainError:
            assert not clear, m
        else:
            assert clear, m


@pytest.mark.parametrize("n", [8, 32])
def test_twisted_shift_symbol_matches_transport(n):
    # bit-for-bit: the twisted shift's symbol, from the cached site planes on
    # the sites x whose image x + m h stays on the lattice, against the
    # whole-grid transport there, for every |m_i| <= 3; both raise
    # DomainError for exactly the shifts that the integer test rejects
    spec = LatticeSpec(n=n, box=3.0)
    rejected = 0
    for m in np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), axis=-1).reshape(-1, 3):
        a = m * spec.step
        if ops._steps_admissible(spec, m):
            u = ops.twisted_shift(spec, m)
            kept = tuple(slice(max(0, -k), n - max(0, k)) for k in m)
            assert u.src == kept, m
            want = geometry.transport(a, spec.points())[kept]
            assert np.array_equal(u.symbol, want), m
            continue
        rejected += 1
        with pytest.raises(geometry.DomainError):
            ops.twisted_shift(spec, m)
        with pytest.raises(geometry.DomainError):
            geometry.transport(a, spec.points())
    assert rejected == 64 + 8  # every m with odd components, and (+-2, +-2, +-2)


def _composite_twisted_shift(spec, m):
    # the twisted shift as it was built before it became one operator: a
    # whole-grid transport multiplier, then the plain shift, and its adjoint,
    # the factors' adjoints in reverse order (reference)
    sym = geometry.transport(np.asarray(m) * spec.step, spec.points())
    return (ops.Compose((ops.Shift(spec, m), ops.Multiplier(spec, sym))),
            ops.Compose((ops.Multiplier(spec, quat.qconj(sym)), ops.Shift(spec, -m))))


@pytest.mark.parametrize("n", [8, 16])
def test_twisted_shift_matches_the_composite(n):
    # forward bit for bit (signed zeros included, compared as int64 views);
    # the adjoint equal under array_equal: the composite's clipped band held
    # conj(sym) * 0, which may be -0.0, where the fused adjoint holds +0.0
    spec = LatticeSpec(n=n, box=3.0)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n,) * 3 + (4,))
    vals[rng.random(vals.shape) < 0.1] = -0.0
    psi, phi = LatticeField(spec, vals), LatticeField(spec, rng.standard_normal(vals.shape))
    draws = [rng.integers(-3, 4, size=3) for _ in range(12)]
    steps = [m for m in draws if ops._steps_admissible(spec, m)]
    steps += [np.zeros(3, dtype=int), np.array([n, 0, 0]), np.array([1, -n - 2, 0]),
              np.array([-n, n, n + 1])]
    for m in steps:
        u = ops.twisted_shift(spec, m)
        ref, ref_adjoint = _composite_twisted_shift(spec, m)
        got = u(psi).values
        assert np.array_equal(got.view(np.int64), ref(psi).values.view(np.int64)), m
        if np.abs(m).max() >= n:
            assert not got.any(), m
        assert np.array_equal(u.adjoint()(phi).values, ref_adjoint(phi).values), m
        assert np.array_equal(u.adjoint().adjoint()(psi).values.view(np.int64),
                              got.view(np.int64)), m
        lhs = hilbert.inner(phi, u(psi))
        rhs = hilbert.inner(u.adjoint()(phi), psi)
        assert np.abs(lhs - rhs).max() < 1e-12 * hilbert.norm(phi) * hilbert.norm(psi), m
        assert np.array_equal(ops.net_shift(u), m) and np.array_equal(ops.net_shift(u.adjoint()), -m)
    assert ops.is_pointwise(ops.compose_defect(spec, [2, 0, 1], [0, 1, 0]))
    # a pointwise multiplier is the same operator with no steps: its product
    # lands in a zeroed grid with the bits of the bare product
    sym = rng.standard_normal(vals.shape)
    mult = ops.Multiplier(spec, sym)
    assert np.array_equal(mult(psi).values.view(np.int64), quat.qmul(sym, vals).view(np.int64))
    assert np.array_equal(mult.adjoint()(psi).values.view(np.int64),
                          quat.qmul(quat.qconj(sym), vals).view(np.int64))


def _single_steps_ref(rng, spec):
    # the operators suite's single-step sampler before the samplers merged
    while True:
        m = rng.integers(-3, 4, size=3)
        if ops._steps_admissible(spec, m):
            return m


def _step_pair_ref(rng, spec):
    # the closure-defect pair sampler before the samplers merged
    while True:
        ma = rng.integers(-2, 3, size=3)
        mb = rng.integers(-2, 3, size=3)
        if all(ops._steps_admissible(spec, m) for m in (ma, mb, ma + mb)):
            return ma, mb


@pytest.mark.parametrize("n", [12, 32])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_step_sampler_keeps_the_draws_of_both_samplers(n, seed):
    # interleaved like the suites' loops: same steps, same generator state
    spec = LatticeSpec(n=n, box=6.0)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        m, = verify._sample_steps(rng, spec, 1, 3)
        assert np.array_equal(m, _single_steps_ref(ref, spec))
        ma, mb = verify._sample_steps(rng, spec, 2, 2)
        ra, rb = _step_pair_ref(ref, spec)
        assert np.array_equal(ma, ra) and np.array_equal(mb, rb)
        assert rng.bit_generator.state == ref.bit_generator.state


def _positions_ref(rng, m, lo=0.4, hi=3.0):
    # the shell sampler before the rejection loops merged
    out = np.empty((0, 3))
    while len(out) < m:
        x = rng.uniform(-hi, hi, size=(2 * m, 3))
        r = np.linalg.norm(x, axis=-1)
        out = np.vstack([out, x[(r > lo) & (r < hi)]])
    return out[:m]


def _sample_legs_ref(rng, m, family):
    # the transport-leg sampler before the rejection loops merged
    draw, legs = family
    chunks = []
    while sum(len(chunk[0]) for chunk in chunks) < m:
        cand = draw(rng, 2 * m)
        ok = verify._legs_clear(legs(*cand))
        chunks.append([c[ok] for c in cand])
    return tuple(np.concatenate(parts)[:m] for parts in zip(*chunks))


@pytest.mark.parametrize("seed", [1, 42, 1008])
@pytest.mark.parametrize("m, lo, hi", [(1, 0.4, 3.0), (1, 1.2, 2.5), (12, 0.8, 2.2),
                                       (50, 0.8, 2.0), (7, 2.9, 3.0), (4000, 0.4, 3.0)])
def test_rejection_sampler_keeps_the_draws_of_both_loops(seed, m, lo, hi):
    # the thin shell (2.9, 3.0) keeps one draw in twenty, so it takes many rounds
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = verify._positions(rng, m, lo, hi)
        assert got.shape == (m, 3)
        assert np.array_equal(got.view(np.int64), _positions_ref(ref, m, lo, hi).view(np.int64))
        for family in (verify._TRANSPORT_PAIRS, verify._COCYCLE_SAMPLES,
                       verify._MULTIPLIER_TRIPLES):
            got = verify._sample_legs(rng, m, family)
            want = _sample_legs_ref(ref, m, family)
            assert len(got) == len(want) and all(len(g) == m for g in got)
            assert all(np.array_equal(g.view(np.int64), w.view(np.int64))
                       for g, w in zip(got, want))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_gis_suite_report(spec):
    rep = verify.gis_suite(n=spec.n, box=spec.box, samples=50, seed=3)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"covariance", "composition-defect", "defect-pointwise",
            "multiplier-unit", "multiplier-commutes", "flux-quantization",
            "associativity", "slice-winding"} <= names
    d = rep.to_dict()
    assert d["suite"] == "gis"
    assert all(c["pass"] for c in d["checks"])


def test_adjoint_of_composite(spec, psi, interior):
    u = ops.twisted_shift(spec, [1, -2, 0])
    phi = LatticeField(spec, np.roll(interior.values, -2, axis=0))
    lhs = hilbert.inner(phi, u(interior))
    rhs = hilbert.inner(u.adjoint()(phi), interior)
    assert np.abs(lhs - rhs).max() < 1e-12 * hilbert.norm(phi) * hilbert.norm(interior)
    # adjoint of adjoint recovers the action
    back = u.adjoint().adjoint()(interior)
    assert np.abs(back.values - u(interior).values).max() < 1e-14


def test_operator_arithmetic(spec, psi):
    x0 = ops.position(spec, 0)
    x1 = ops.position(spec, 1)
    combo = oracles.OpSum((ops.Scaled(2.0, x0), ops.Scaled(-1.0, x1)))
    want = 2.0 * x0(psi).values - x1(psi).values
    assert np.abs(combo(psi).values - want).max() < 1e-14
    neg = ops.Scaled(-1.0, x0)
    assert np.abs(neg(psi).values + x0(psi).values).max() == 0.0


def test_stencil_identities_on_a_batch_match_field_by_field():
    # the operators suite draws its 20 Gaussian fields as one batched field
    # and checks the four Richardson-checked identities, rotation-position and
    # spin-half-turn on the whole batch; field k's deviation must be the bits
    # it gives alone, where each field is the parameters of the one-by-one
    # draw in a plain scalar formula
    def gaussian_ref(center, width, amp):
        return lambda x: (np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * width**2))
                          [..., None] * amp)

    rng, ref_rng = np.random.default_rng(1008), np.random.default_rng(1008)
    batch = verify._random_gaussian_fields(rng, 20)
    singles = []
    for _ in range(20):  # per field: centre, width, amplitude
        center = verify._positions(ref_rng, 1, lo=1.2, hi=2.5)[0]
        width = ref_rng.uniform(0.6, 1.2)
        singles.append(gaussian_ref(center, width, ref_rng.standard_normal(4)))
    probes = verify._probe_points(rng)
    assert np.array_equal(probes, verify._probe_points(ref_rng))  # same draws consumed
    assert np.array_equal(batch(probes), np.stack([fn(probes) for fn in singles]))
    batch_checks = [(name, fdev) for name, _, fdev, _ in verify._STENCIL_IDENTITIES] + [
        ("rotation-position", verify._dev_rotation_position),
        ("spin-half-turn", lambda fn, probes, h: verify._dev_spin_half_turn(fn, probes))]
    for name, fdev in batch_checks:
        for h in (0.02, 0.01):
            got = fdev(batch, probes, h)
            assert got.shape == (20,), name
            assert np.array_equal(got, [fdev(fn, probes, h) for fn in singles]), (name, h)


def test_wpr_checks_pass_with_twisted_shifts_and_fail_with_plain_shifts(monkeypatch):
    # hamiltonian-wpr and covderiv-wpr state H and grad_i through the
    # one-step twisted translations; plain shifts drop the transport and
    # miss both by far more than roundoff
    spec = LatticeSpec(n=12, box=4.0)
    psi = LatticeField(spec, np.random.default_rng(12).standard_normal((12,) * 3 + (4,)))
    ham = ops.hamiltonian(spec, 1.0)

    def run():
        checks = verify._wpr_checks(spec, psi, ham)
        assert [c.name for c in checks] == ["hamiltonian-wpr", "covderiv-wpr"]
        return checks

    assert all(c.passed and c.max_dev < 1e-14 for c in run())
    monkeypatch.setattr(ops, "twisted_shift", lambda spec, m: ops.Shift(spec, m))
    assert all(not c.passed and c.max_dev > 0.01 for c in run())


def test_batched_gaussian_field_keeps_the_bits_of_scalar_widths():
    # numpy's w**2 on an array squares, while a Python float's ** rounds
    # through C pow; they differ in the last bit for a few widths in 10^4
    rng = np.random.default_rng(3)
    m = 20000
    center = rng.uniform(-2.0, 2.0, (m, 3))
    width = rng.uniform(0.6, 1.2, m)
    amp = rng.standard_normal((m, 4))
    probes = verify._probe_points(rng)
    denom = np.array([2.0 * w**2 for w in width.tolist()])
    env = np.exp(-np.sum((probes - center[:, None]) ** 2, axis=-1) / denom[:, None])
    got = hilbert.gaussian_field(center, width, amp)(probes)
    assert np.array_equal(got, env[..., None] * amp[:, None])
