import numpy as np
import pytest

from qmono import geometry, hilbert, operators as ops, quat, verify
from qmono.hilbert import Box, LatticeField, LatticeSpec

AX = np.eye(3)


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
    a = spec.step * np.array([2.0, -1.0, 0.0])
    v = ops.shift(spec, a)
    out = v(psi)
    assert np.array_equal(out.values[5, 5, 5], psi.values[3, 6, 5])
    # inverse undoes (interior data)
    back = ops.shift(spec, -a)(out)
    core = (slice(3, -3),) * 3
    assert np.array_equal(back.values[core], psi.values[core])
    with pytest.raises(ValueError):
        ops.shift(spec, np.array([0.1, 0.0, 0.0]))


def test_shift_imprimitivity_bit_exact(spec, psi):
    a = spec.step * np.array([3.0, 1.0, -2.0])
    v = ops.shift(spec, a)
    box = Box.of((-1.5, -2.0, -1.0), (1.0, 1.5, 2.0))
    lhs = v(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(a), v(psi))
    assert np.array_equal(lhs.values, rhs.values)


def test_twisted_shift_unitary_and_covariant(spec, psi, interior):
    a = spec.step * np.array([2.0, 1.0, 0.0])
    u = ops.twisted_shift(spec, a)
    assert abs(hilbert.norm(u(interior)) - hilbert.norm(interior)) < 1e-12
    box = Box.of((-1.0, -1.0, -1.0), (1.5, 2.0, 1.0))
    lhs = u(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(a), u(psi))
    assert np.array_equal(lhs.values, rhs.values)


def test_twisted_shift_inadmissible_diagonal(spec):
    # steps (2,2,2): the site at -(3,3,3)h/2 transports through the origin
    with pytest.raises(geometry.DomainError):
        ops.twisted_shift(spec, spec.step * np.array([2.0, 2.0, 2.0]))


def test_one_parameter_family(spec, interior):
    u = AX[1]
    s, t = 2 * spec.step, 3 * spec.step
    lhs = ops.twisted_shift(spec, s * u)(ops.twisted_shift(spec, t * u)(interior))
    rhs = ops.twisted_shift(spec, (s + t) * u)(interior)
    assert np.abs(lhs.values - rhs.values).max() < 1e-13


def test_compose_defect_symbol(spec, psi):
    a = spec.step * np.array([2.0, 0.0, 1.0])
    b = spec.step * np.array([0.0, 1.0, 0.0])
    defect = ops.compose_defect(spec, a, b)
    assert ops.is_pointwise(defect)
    core = ops.interior_mask(spec, 4)
    sym = ops.symbol_of(defect)
    want = geometry.multiplier(a, b, spec.points())
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
    gen = ops.symbol_of(ops.compose_defect(spec, spec.step * np.array([2.0, 0, 0]),
                                           spec.step * np.array([0, 2.0, 0])))
    assert quat.qnorm(gen - quat.E0)[core].max() > 1e-3
    par = ops.symbol_of(ops.compose_defect(spec, spec.step * np.array([2.0, 0, 0]),
                                           spec.step * np.array([1.0, 0, 0])))
    assert quat.qnorm(par - quat.E0)[core].max() < 1e-12


def test_net_shift_and_pointwise():
    spec = LatticeSpec(n=8, box=2.0)
    v = ops.shift(spec, spec.step * np.array([1.0, 0, 0]))
    assert not ops.is_pointwise(v)
    assert ops.is_pointwise(ops.jop(spec))
    comp = ops.Compose((v.adjoint(), ops.jop(spec), v))
    assert ops.is_pointwise(comp)
    assert ops.net_shift(ops.Diff(spec, 0)) is None


def test_connection_value():
    val = ops.connection_value(AX[0], np.array([0.0, 0.0, 1.0]))
    assert np.allclose(val, [0.0, 0.0, -0.5, 0.0], atol=0)
    sym = ops.symbol_of(ops.connection(LatticeSpec(n=8, box=2.0), AX[0]))
    pts = LatticeSpec(n=8, box=2.0).points()
    want = ops.connection_value(AX[0], pts)
    assert np.abs(sym - want).max() < 1e-15


def test_covderiv_antihermitian(spec, interior):
    psi2 = LatticeField(spec, np.roll(interior.values, 2, axis=1))
    g = ops.covderiv(spec, AX[2])
    lhs = hilbert.inner(interior, g(psi2))
    rhs = hilbert.inner(g.adjoint()(interior), psi2)
    assert np.abs(lhs - rhs).max() < 1e-12 * hilbert.norm(interior) * hilbert.norm(psi2)
    with pytest.raises(ValueError):
        ops.covderiv(spec, np.array([1.0, 1.0, 0.0]))


def test_hamiltonian_velocity_identity_exact(spec, psi):
    ham = ops.hamiltonian(spec, 1.7)
    for i in range(3):
        xi = ops.position(spec, i)
        comm = ham(xi(psi)).values - xi(ham(psi)).values
        target = (-1.0 / 1.7) * ops.covderiv(spec, AX[i])(psi).values
        assert np.abs(comm - target).max() < 1e-12 * np.abs(target).max()


def test_hamiltonian_hermitian_and_mass(spec, psi):
    with pytest.raises(ValueError):
        ops.hamiltonian(spec, 0.0)
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
    rep = ops.commutator_check(1, 1, fn, pts, h=0.02)
    assert rep.max_dev < 1e-12


def test_commutator_check_curvature_target():
    # at x = (0,0,1), i=1, j=2 the target multiplier is -dirq(x)/2
    assert geometry.curvature(np.array([0.0, 0.0, 1.0])).kappa[0, 1] == pytest.approx(-0.5)

    def fn(x):
        env = np.exp(-np.sum((x - np.array([0.0, 0.2, 1.1])) ** 2, axis=-1))
        return env[..., None] * np.array([1.0, 0.0, 0.2, -0.1])

    pts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 1.2]])
    rep1 = ops.commutator_check(0, 1, fn, pts, h=0.02)
    rep2 = ops.commutator_check(0, 1, fn, pts, h=0.01)
    assert rep1.max_dev < 2e-3
    assert rep1.max_dev / rep2.max_dev == pytest.approx(4.0, abs=0.5)
    d = rep1.to_dict()
    assert d["pair"] == "[grad_1, grad_2]"


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
    m3 = ops.rotgen(spec, 2)
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
    # every site, with a float margin far below the lattice's h/(2|m|) gaps
    spec = LatticeSpec(n=n, box=3.0)
    pts = spec.points().reshape(-1, 3)
    r = np.linalg.norm(pts, axis=-1)
    for m in np.stack(np.meshgrid(*[np.arange(-4, 5)] * 3), axis=-1).reshape(-1, 3):
        y = pts + m * spec.step
        dist = geometry.segment_origin_distance(pts, y)
        clear = bool(np.all(dist > 1e-6 * np.maximum(r, np.linalg.norm(y, axis=-1))))
        assert ops._steps_admissible(spec, m) == clear, m


def test_gis_verify_report(spec):
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
    a = spec.step * np.array([1.0, -2.0, 0.0])
    u = ops.twisted_shift(spec, a)
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
    combo = 2.0 * x0 - x1
    want = 2.0 * x0(psi).values - x1(psi).values
    assert np.abs(combo(psi).values - want).max() < 1e-14
    neg = -x0
    assert np.abs(neg(psi).values + x0(psi).values).max() == 0.0
