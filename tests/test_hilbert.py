import re

import numpy as np
import pytest

from qmono import hilbert, operators as ops, quat
from qmono.hilbert import Box, LatticeField, LatticeSpec


def random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return LatticeField(spec, rng.standard_normal((spec.n,) * 3 + (4,)))


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(n=3, box=6.0)
    with pytest.raises(ValueError):
        LatticeSpec(n=33, box=6.0)  # odd n would sample the origin
    with pytest.raises(ValueError):
        LatticeSpec(n=32, box=0.0)
    # a box that floats cannot hold: the cell volume h^3 must be a normal
    # float, and the box volume (2 box)^3 six decades below the largest
    # float; a box just inside either end keeps every |x|^2 and the norm of
    # a unit-scale field finite and nonzero
    fin = np.finfo(float)
    largest = 0.5 * (1e-6 * fin.max) ** (1.0 / 3.0)
    for n in (8, 32):
        smallest = n / 2 * fin.tiny ** (1.0 / 3.0)
        for box in (0.99 * smallest, 1e-170, 1.01 * largest, 1e150, 1e300):
            with pytest.raises(ValueError, match=re.escape(f"LatticeSpec.box = {box:g} is too")):
                LatticeSpec(n=n, box=box)
        for box in (1.01 * smallest, 0.99 * largest):
            spec = LatticeSpec(n=n, box=box)
            assert fin.tiny <= spec.cell_volume and (2.0 * box) ** 3 <= 1e-6 * fin.max
            r2 = np.sum(spec.points() ** 2, axis=-1)
            assert np.isfinite(r2).all() and r2.min() > 0.0
            assert 0.0 < hilbert.norm(LatticeField(spec, np.ones((n, n, n, 4)))) < np.inf


@pytest.mark.parametrize("n", [32.0, 32.5, True, "32", np.float64(16.0)])
def test_lattice_spec_rejects_a_non_integer_n(n):
    # a whole float n was accepted, compared equal to the integer lattice as
    # a cache key, and failed later with a bare TypeError building a grid
    with pytest.raises(TypeError, match=f"^LatticeSpec.n must be an integer, got {re.escape(repr(n))}$"):
        LatticeSpec(n=n, box=6.0)
    assert LatticeSpec(n=np.int64(16), box=6.0) == LatticeSpec(n=16, box=6.0)


def test_grid_avoids_origin():
    spec = LatticeSpec(n=8, box=2.0)
    ax = spec.axis()
    # coordinates are odd multiples of box/n
    ratios = ax / (spec.box / spec.n)
    assert np.allclose(ratios, np.round(ratios), atol=0)
    assert np.all(np.abs(np.round(ratios)) % 2 == 1)
    pts = spec.points()
    assert np.linalg.norm(pts, axis=-1).min() > 0.0
    assert pts.shape == (8, 8, 8, 3)


def test_inner_gaussian_oracle():
    # closed form: integral of exp(-2|x|^2) over R^3 is (pi/2)^{3/2}
    spec = LatticeSpec(n=64, box=6.0)
    psi = hilbert.sample(spec, lambda x: np.exp(-np.sum(x * x, axis=-1))[..., None] * quat.E0)
    val = hilbert.inner(psi, psi)
    assert val[0] == pytest.approx((np.pi / 2.0) ** 1.5, abs=1e-6)
    assert np.abs(val[1:]).max() == 0.0


@pytest.mark.parametrize("n", [8, 32])
def test_inner_matches_summed_pointwise_product(n):
    # the Gram-matrix inner product against the site-by-site sum of phi* psi
    spec = LatticeSpec(n=n, box=4.0)
    phi, psi = random_field(spec, 5), random_field(spec, 6)
    for a, b in ((phi, psi), (psi, psi), (phi, hilbert.rscale(psi, quat.E2))):
        want = quat.qmul(quat.qconj(a.values), b.values).sum(axis=(0, 1, 2)) * spec.cell_volume
        got = hilbert.inner(a, b)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_inner_positivity_and_realness():
    spec = LatticeSpec(n=16, box=4.0)
    psi = random_field(spec, 1)
    val = hilbert.inner(psi, psi)
    assert val[0] > 0.0
    assert np.abs(val[1:]).max() < 1e-12 * val[0]


def test_inner_scalar_moves():
    spec = LatticeSpec(n=12, box=4.0)
    phi = random_field(spec, 2)
    psi = random_field(spec, 3)
    base = hilbert.inner(phi, psi)
    got = hilbert.inner(hilbert.rscale(phi, quat.E1), hilbert.rscale(psi, quat.E2))
    want = quat.qmul(quat.qconj(quat.E1), quat.qmul(base, quat.E2))
    assert np.abs(got - want).max() < 1e-12 * np.abs(base).max()
    # linearity in the second factor only
    got2 = hilbert.inner(psi, hilbert.rscale(psi, quat.E1))
    want2 = quat.qmul(hilbert.inner(psi, psi), quat.E1)
    assert np.abs(got2 - want2).max() < 1e-12 * np.abs(want2).max()


def test_inner_mismatched_lattices():
    a = random_field(LatticeSpec(n=8, box=2.0))
    b = random_field(LatticeSpec(n=8, box=3.0))
    with pytest.raises(ValueError):
        hilbert.inner(a, b)


def test_rscale():
    spec = LatticeSpec(n=8, box=2.0)
    psi = random_field(spec, 4)
    assert np.array_equal(hilbert.rscale(psi, quat.E0).values, psi.values)
    p = np.array([0.3, -1.0, 0.2, 0.5])
    q = np.array([1.1, 0.0, -0.7, 0.4])
    lhs = hilbert.rscale(hilbert.rscale(psi, p), q)
    rhs = hilbert.rscale(psi, quat.qmul(p, q))
    assert np.abs(lhs.values - rhs.values).max() < 1e-14
    # norm scales by |q|
    assert hilbert.norm(hilbert.rscale(psi, q)) == pytest.approx(
        hilbert.norm(psi) * quat.qnorm(q), rel=1e-12)


def test_project_spectral_family():
    spec = LatticeSpec(n=16, box=4.0)
    psi = random_field(spec, 5)
    full = hilbert.project(Box.of((-spec.box,) * 3, (spec.box,) * 3), psi)
    assert np.array_equal(full.values, psi.values)

    d1 = Box.of((-2.0, -2.0, -2.0), (1.0, 1.5, 2.0))
    d2 = Box.of((-1.0, -4.0, 0.0), (4.0, 1.0, 4.0))
    p1 = hilbert.project(d1, psi)
    assert np.array_equal(hilbert.project(d1, p1).values, p1.values)  # idempotent
    lhs = hilbert.project(d1, hilbert.project(d2, psi))
    rhs = hilbert.project(Box.of((-1.0, -2.0, 0.0), (1.0, 1.0, 2.0)), psi)  # d1 meet d2
    assert np.array_equal(lhs.values, rhs.values)  # multiplicative
    # self-adjoint
    phi = random_field(spec, 6)
    assert np.abs(hilbert.inner(hilbert.project(d1, phi), psi)
                  - hilbert.inner(phi, hilbert.project(d1, psi))).max() < 1e-12


def test_project_support_is_the_box_block_within_the_input_support():
    spec = LatticeSpec(n=16, box=4.0)
    psi = random_field(spec, 9)
    pts = spec.points()

    def sites(*boxes):
        inside = np.ones((spec.n,) * 3, dtype=bool)
        for d in boxes:
            inside &= np.all((pts >= d.lo) & (pts < d.hi), axis=-1)
        return inside

    def block(support):
        mask = np.zeros((spec.n,) * 3, dtype=bool)
        mask[support] = True
        assert all(0 <= s.start <= s.stop for s in support)
        return mask

    assert psi.support is None
    d1 = Box.of((-2.0, -2.0, -2.0), (1.0, 1.5, 2.0))
    d2 = Box.of((-1.0, -4.0, 0.0), (4.0, 1.0, 4.0))
    far = Box.of((2.5, 2.5, 2.5), (4.0, 4.0, 4.0))
    p1 = hilbert.project(d1, psi)
    assert np.array_equal(block(p1.support), sites(d1))
    assert np.array_equal(block(hilbert.project(d2, p1).support), sites(d1, d2))
    empty = hilbert.project(far, p1)
    assert not block(empty.support).any() and not empty.values.any()


def test_a_projected_fields_values_are_read_only():
    # formed once from the field's block: an in-place edit would set the two apart
    spec = LatticeSpec(n=16, box=4.0)
    psi = random_field(spec, 9)
    whole = Box.of((-spec.box,) * 3, (spec.box,) * 3)
    for box in (Box.of((-2.0, -2.0, -2.0), (1.0, 1.5, 2.0)), whole):
        out = hilbert.project(box, psi)
        with pytest.raises(ValueError):
            out.values *= 2.0
        assert np.array_equal(out.values[out.support], out.block)
    assert np.array_equal(psi.values, random_field(spec, 9).values)
    # a field built from values holds them whole
    with pytest.raises(TypeError):
        LatticeField(spec, psi.values, out.support)


def test_multiplier_left_action_and_commutation():
    # the multiplication operator is operators.Multiplier
    spec = LatticeSpec(n=16, box=4.0)
    psi = random_field(spec, 7)
    assert np.array_equal(ops.Multiplier(spec, quat.E0)(psi).values, psi.values)

    def f(x):
        out = np.zeros(x.shape[:-1] + (4,))
        out[..., 2] = x[..., 0]
        out[..., 0] = 1.0
        return out

    def g(x):
        out = np.zeros(x.shape[:-1] + (4,))
        out[..., 1] = np.sin(x[..., 1])
        return out

    # M(f) M(g) = M(f g), order preserved
    mf = ops.Multiplier(spec, f(spec.points()))
    mg = ops.Multiplier(spec, g(spec.points()))
    lhs = mf(mg(psi))
    fg = quat.qmul(f(spec.points()), g(spec.points()))
    rhs = ops.Multiplier(spec, fg)(psi)
    assert np.abs(lhs.values - rhs.values).max() < 1e-13

    d = Box.of((-2, -2, -2), (2, 2, 2))
    a = mf(hilbert.project(d, psi))
    b = hilbert.project(d, mf(psi))
    assert np.array_equal(a.values, b.values)  # bit-exact commutation


def test_multiplier_is_left_not_right():
    spec = LatticeSpec(n=8, box=2.0)
    psi = random_field(spec, 8)
    left = ops.Multiplier(spec, quat.E1)(psi)
    right = hilbert.rscale(psi, quat.E1)
    assert np.abs(left.values - right.values).max() > 0.1


def test_sampling_commutes_with_pointwise_ops():
    spec = LatticeSpec(n=12, box=3.0)

    def fn(x):
        env = np.exp(-np.sum(x * x, axis=-1))
        out = np.zeros(x.shape[:-1] + (4,))
        out[..., 0] = env
        out[..., 3] = 0.5 * env
        return out

    q = np.array([0.2, 0.4, -0.1, 0.9])
    a = hilbert.rscale(hilbert.sample(spec, fn), q)
    b = hilbert.sample(spec, lambda x: quat.rmul(fn(x), q))
    assert np.array_equal(a.values, b.values)


def test_field_shape_validation():
    spec = LatticeSpec(n=8, box=2.0)
    with pytest.raises(ValueError):
        LatticeField(spec, np.zeros((8, 8, 8, 3)))
