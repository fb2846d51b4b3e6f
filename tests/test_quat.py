import numpy as np
import pytest

from qmono import hilbert, operators, quat


def qmul_ref(p, q):
    """Reference product straight from the structure constants (oracle)."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    out = np.zeros(4)
    for mu in range(4):
        for nu in range(4):
            c = p[mu] * q[nu]
            if mu == 0:
                out[nu] += c
            elif nu == 0:
                out[mu] += c
            else:
                out[0] -= c * (mu == nu)
                out[1:] += c * eps[mu - 1, nu - 1]
    return out


def test_basis_products():
    assert np.array_equal(quat.qmul(quat.E1, quat.E2), quat.E3)
    assert np.array_equal(quat.qmul(quat.E2, quat.E3), quat.E1)
    assert np.array_equal(quat.qmul(quat.E3, quat.E1), quat.E2)
    assert np.array_equal(quat.qmul(quat.E1, quat.E1), -quat.E0)
    assert np.array_equal(quat.qmul(quat.E2, quat.E1), -quat.E3)


def test_unit_is_central():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((50, 4))
    assert np.array_equal(quat.qmul(q, quat.E0), q)
    assert np.array_equal(quat.qmul(quat.E0, q), q)


def test_mul_against_reference():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.standard_normal(4)
        q = rng.standard_normal(4)
        assert np.abs(quat.qmul(p, q) - qmul_ref(p, q)).max() < 1e-14


def qmul_formula(p, q):
    """The product in one whole-array expression per component: the same
    16 products, summed in the same order, with no blocking (reference)."""
    p0, p1, p2, p3 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    q0, q1, q2, q3 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ], axis=-1)


def box_mask_from_points(box, spec):
    """Box membership compared coordinate by coordinate at every site (reference)."""
    pts = spec.points()
    return np.all((pts >= np.asarray(box.lo)) & (pts < np.asarray(box.hi)), axis=-1)


def shift_ref(vals, steps):
    """``vals`` moved by ``steps`` grid cells with zero fill: a periodic roll,
    then every site whose source index lies outside the grid zeroed (reference)."""
    n = vals.shape[0]
    rolled = np.roll(vals, tuple(int(m) % n for m in steps), axis=(0, 1, 2))
    src = np.arange(n) - np.reshape(steps, (3, 1))  # per-axis source indices
    m0, m1, m2 = (src >= 0) & (src < n)
    inside = m0[:, None, None] & m1[None, :, None] & m2[None, None, :]
    return np.where(inside[..., None], rolled, 0.0)


@pytest.mark.parametrize("n", [8, 48])
def test_grid_kernels_match_reference_formulas(n):
    # bit-for-bit: qmul on every operand layout the program passes, from
    # single quaternions to whole fields (n = 48 spans several blocks),
    # qnorm and qconj, the one-pass shifts and central differences, and box
    # projections
    rng = np.random.default_rng(n)
    spec = hilbert.LatticeSpec(n=n, box=3.0)
    f, g = rng.standard_normal((2, n, n, n, 4))
    c = rng.standard_normal(4)
    batch_p, batch_q = rng.standard_normal((2, 20000, 4))  # three blocks
    small = 128  # small batches, one block each
    here, there = (slice(None), slice(None, -1)), (slice(None), slice(1, None))
    cases = [
        (f, g),                                  # whole fields
        (c, g), (f, c),                          # (4,) x field, field x (4,)
        (batch_p, batch_q), (batch_p, c), (c, c),  # batches and single quaternions
        (batch_p[:1], batch_q[:1]), (c, batch_q[:7]),
        (batch_p[:small], batch_q[:small]), (batch_p[:small + 1], batch_q[:small + 1]),
        (batch_p[:small], c), (c, batch_q[:small + 1]),  # small batches and a constant
        (operators.left_unit(spec, 1).symbol, g),  # zero-stride symbol
        (f[here], g[there]),                     # non-contiguous slices
        (quat.qconj(f[there]), quat.qmul(g[here], f[there])),
    ]
    for p, q in cases:
        got = quat.qmul(p, q)
        assert got.shape == np.broadcast_shapes(np.shape(p), np.shape(q))
        assert np.array_equal(got, qmul_formula(p, q))
    for q in (f, f[there], batch_p[:small], c):
        assert np.array_equal(quat.qnorm(q), np.sqrt(np.sum(q * q, -1)))
        assert np.array_equal(quat.qconj(q), q * [1.0, -1.0, -1.0, -1.0])

    m_range = np.arange(-3, 4)
    for m in np.stack(np.meshgrid(m_range, m_range, m_range), axis=-1).reshape(-1, 3):
        assert np.array_equal(operators.Shift(spec, m).apply_values(f), shift_ref(f, m)), m
    for m in ((n, 0, 0), (0, -n, 1), (2, 1, n + 3), (-n - 1, -n, n)):
        assert not operators.Shift(spec, m).apply_values(f).any(), m
    for axis, e in enumerate(np.eye(3, dtype=int)):
        want = (shift_ref(f, -e) - shift_ref(f, e)) / (2.0 * spec.step)
        assert np.array_equal(operators.Diff(spec, axis).apply_values(f), want)

    h = spec.step
    boxes = [hilbert.Box.of((-spec.box,) * 3, (spec.box,) * 3),  # the whole box
             hilbert.Box.of((0.0,) * 3, (0.0,) * 3)]             # an empty box
    for _ in range(50):
        lo = rng.integers(-n, n, size=3) * (h / 2)  # faces on sites and on cell faces
        hi = lo + rng.integers(0, n + 1, size=3) * (h / 2)
        boxes.append(hilbert.Box.of(lo, hi))
    psi = hilbert.LatticeField(spec, f)
    for box in boxes:
        want = np.where(box_mask_from_points(box, spec)[..., None], f, 0.0)
        assert np.array_equal(hilbert.project(box, psi).values, want), box
    assert hilbert.project(boxes[0], psi).values.all()
    assert not hilbert.project(boxes[1], psi).values.any()


def test_rmul_matches_the_product_formula():
    # the right product by one quaternion is one BLAS matrix product: bit
    # for bit on the signed basis units, within roundoff for any other c
    rng = np.random.default_rng(5)
    f = rng.standard_normal((32, 32, 32, 4))
    for c in np.concatenate([np.eye(4), -np.eye(4)]):
        assert np.array_equal(quat.rmul(f, c), qmul_formula(f, c)), c
    for _ in range(5):
        c = rng.standard_normal(4)
        for p in (rng.standard_normal(4), rng.standard_normal((300, 4)), f,
                  f[:, 1:, ::2]):  # non-contiguous
            got = quat.rmul(p, c)
            want = qmul_formula(p, c)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want).max(axis=-1) <= 1e-15 * quat.qnorm(p) * quat.qnorm(c))


def test_conjugation():
    assert np.array_equal(quat.qconj(quat.E0 + quat.E1), quat.E0 - quat.E1)
    rng = np.random.default_rng(2)
    p = rng.standard_normal((1000, 4))
    q = rng.standard_normal((1000, 4))
    lhs = quat.qconj(quat.qmul(p, q))
    rhs = quat.qmul(quat.qconj(q), quat.qconj(p))
    assert np.abs(lhs - rhs).max() < 1e-13


def test_norm():
    assert quat.qnorm(quat.E0 + quat.E1) ** 2 == pytest.approx(2.0, abs=1e-15)
    rng = np.random.default_rng(3)
    p = rng.standard_normal((2000, 4))
    q = rng.standard_normal((2000, 4))
    prod_norm = quat.qnorm(quat.qmul(p, q))
    assert np.abs(prod_norm - quat.qnorm(p) * quat.qnorm(q)).max() < 1e-12
    # q* q is the squared norm times the unit
    qq = quat.qmul(quat.qconj(p), p)
    assert np.abs(qq[:, 0] - quat.qnorm(p) ** 2).max() < 1e-12
    assert np.abs(qq[:, 1:]).max() < 1e-13


def test_associativity_bulk():
    rng = np.random.default_rng(4)
    p, q, r = rng.standard_normal((3, 100000, 4))
    dev = quat.qnorm(quat.qmul(quat.qmul(p, q), r) - quat.qmul(p, quat.qmul(q, r)))
    scale = quat.qnorm(p) * quat.qnorm(q) * quat.qnorm(r)
    assert (dev / scale).max() < 4 * np.finfo(float).eps


def test_qexp_special_values():
    assert np.abs(quat.qexp(np.zeros(4)) - quat.E0).max() == 0.0
    assert np.abs(quat.qexp(np.pi * quat.E3) + quat.E0).max() < 1e-15
    assert np.abs(quat.qexp(0.5 * np.pi * quat.E1) - quat.E1).max() < 1e-15


def test_qexp_small_argument_stable():
    tiny = 1e-9 * quat.E2
    out = quat.qexp(tiny)
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert out[2] == pytest.approx(1e-9, rel=1e-12)


def test_qexp_one_parameter_group():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((500, 3))
    w = quat.from_vector(v / np.linalg.norm(v, axis=-1)[:, None])
    th = rng.uniform(-8, 8, 500)[:, None]
    ph = rng.uniform(-8, 8, 500)[:, None]
    dev = quat.qnorm(quat.qmul(quat.qexp(th * w), quat.qexp(ph * w))
                     - quat.qexp((th + ph) * w))
    assert dev.max() < 1e-12


def test_su2_basis_images():
    assert np.allclose(quat.su2(quat.E0), np.eye(2), atol=0)
    assert np.allclose(quat.su2(quat.E3), np.diag([-1j, 1j]), atol=0)
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]])]
    for k, e in enumerate((quat.E1, quat.E2, quat.E3)):
        assert np.allclose(quat.su2(e), -1j * sigma[k], atol=0)


def test_su2_homomorphism():
    rng = np.random.default_rng(6)
    p = rng.standard_normal((10000, 4))
    q = rng.standard_normal((10000, 4))
    p /= quat.qnorm(p)[:, None]
    q /= quat.qnorm(q)[:, None]
    dev = np.abs(quat.su2(quat.qmul(p, q)) - quat.su2(p) @ quat.su2(q))
    assert dev.max() < 1e-13
    assert np.array_equal(quat.su2(quat.qmul(quat.E1, quat.E2)),
                          quat.su2(quat.E1) @ quat.su2(quat.E2))


def test_auto_fixed_point_and_values():
    assert np.abs(quat.auto(quat.E3, quat.E3) - quat.E3).max() < 1e-15
    assert np.abs(quat.auto(quat.E3, quat.E1) + quat.E1).max() < 1e-15
    # oracle: expand (-e3) e1 e3 with the reference product
    ref = qmul_ref(qmul_ref(-quat.E3, quat.E1), quat.E3)
    assert np.abs(quat.auto(quat.E3, quat.E1) - ref).max() == 0.0


def test_auto_rejects_non_unit():
    with pytest.raises(ValueError):
        quat.auto(2.0 * quat.E3, quat.E1)


def test_auto_is_automorphism():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((300, 4))
    w /= quat.qnorm(w)[:, None]
    p = rng.standard_normal((300, 4))
    q = rng.standard_normal((300, 4))
    dev = quat.qnorm(quat.auto(w, quat.qmul(p, q))
                     - quat.qmul(quat.auto(w, p), quat.auto(w, q)))
    assert (dev / (quat.qnorm(p) * quat.qnorm(q))).max() < 1e-13
