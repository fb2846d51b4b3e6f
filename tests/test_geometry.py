import numpy as np
import pytest
from scipy import integrate

import oracles
from qmono import geometry, quat


def flux_by_quadrature(v1, v2, v3):
    """Adaptive 2D quadrature of B . dS over a flat triangle (oracle)."""
    v1, v2, v3 = (np.asarray(v) for v in (v1, v2, v3))
    normal = np.cross(v2 - v1, v3 - v1)  # area-weighted, orientation included

    def integrand(t, s):
        x = v1 + s * (v2 - v1) + t * (v3 - v1)
        return float(np.dot(geometry.bfield(x), normal))

    val, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, lambda s: 1.0 - s,
                               epsabs=1e-10, epsrel=1e-10)
    return val


def rotation_quaternion(axis, angle):
    """Half-angle rotation quaternion (oracle for transport)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def admissible_pairs(rng, m):
    a = rng.uniform(-2, 2, (3 * m, 3))
    x = rng.uniform(-3, 3, (3 * m, 3))
    ok = (np.linalg.norm(x, axis=1) > 0.4) & (np.linalg.norm(x + a, axis=1) > 0.4)
    ok &= geometry.segment_origin_distance(x, x + a) > 1e-2
    return a[ok][:m], x[ok][:m]


def test_dirq():
    assert np.array_equal(geometry.dirq([0.0, 0.0, 5.0]), quat.E3)
    assert np.abs(geometry.dirq([1.0, 1.0, 0.0])
                  - (quat.E1 + quat.E2) / np.sqrt(2)).max() < 1e-15
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, (500, 3))
    x = x[np.linalg.norm(x, axis=1) > 0.1]
    j = geometry.dirq(x)
    assert np.abs(quat.qmul(j, j) + quat.E0).max() < 1e-15
    # scale invariance
    assert np.abs(geometry.dirq(3.7 * x) - j).max() < 1e-15
    with pytest.raises(geometry.DomainError):
        geometry.dirq([0.0, 0.0, 0.0])


def test_bfield():
    assert np.allclose(geometry.bfield([0.0, 0.0, 1.0]), [0.0, 0.0, 0.5], atol=0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, (500, 3))
    x = x[np.linalg.norm(x, axis=1) > 0.2]
    mag = np.linalg.norm(geometry.bfield(x), axis=-1)
    assert np.abs(mag * 2.0 * np.sum(x * x, axis=-1) - 1.0).max() < 1e-12
    with pytest.raises(geometry.DomainError):
        geometry.bfield(np.zeros(3))


def test_bfield_divergence_free():
    h = 1e-4
    x = np.array([1.0, 2.0, 2.0])
    div = sum(
        (geometry.bfield(x + h * e)[i] - geometry.bfield(x - h * e)[i]) / (2 * h)
        for i, e in enumerate(np.eye(3))
    )
    assert abs(div) < 1e-6


def test_transport_identity_and_example():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (100, 3))
    x = x[np.linalg.norm(x, axis=1) > 0.3]
    assert np.abs(geometry.transport(np.zeros(3), x) - quat.E0).max() < 1e-15

    # quarter-turn in the plane: angle(x, x+a) = pi/4, axis x cross a = e3
    w = geometry.transport(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    expect = rotation_quaternion([0, 0, 1], np.pi / 4.0)
    assert np.abs(w - expect).max() < 1e-15


def test_transport_matches_rotation_oracle():
    rng = np.random.default_rng(3)
    a, x = admissible_pairs(rng, 300)
    w = geometry.transport(a, x)
    for k in range(len(a)):
        y = x[k] + a[k]
        cross = np.cross(x[k], y)
        if np.linalg.norm(cross) < 1e-12:
            continue
        ang = np.arctan2(np.linalg.norm(cross), np.dot(x[k], y))
        assert np.abs(w[k] - rotation_quaternion(cross, ang)).max() < 1e-12


def test_transport_unitary():
    rng = np.random.default_rng(4)
    a, x = admissible_pairs(rng, 100000)
    assert np.abs(quat.qnorm(geometry.transport(a, x)) - 1.0).max() < 1e-12


def test_transport_intertwines_dirq():
    rng = np.random.default_rng(5)
    a, x = admissible_pairs(rng, 2000)
    w = geometry.transport(a, x)
    lhs = quat.qmul(w, quat.qmul(geometry.dirq(x), quat.qconj(w)))
    assert quat.qnorm(lhs - geometry.dirq(x + a)).max() < 1e-13


def test_transport_domain_errors():
    with pytest.raises(geometry.DomainError):
        geometry.transport(np.array([2.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(geometry.DomainError):
        geometry.transport(np.array([1.0, 0.0, 0.0]), np.zeros(3))


def _transport_domain_agrees(a, x):
    """``transport`` accepts every pair the segment distance clears, as one
    batch, and raises on each pair it does not; returns the rejected mask."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    y = x + a
    lim = geometry.SEGMENT_MARGIN * np.maximum(np.linalg.norm(x, axis=-1),
                                               np.linalg.norm(y, axis=-1))
    bad = geometry.segment_origin_distance(x, y) <= lim
    geometry.transport(a[~bad], x[~bad])
    for ak, xk in zip(a[bad], x[bad]):
        with pytest.raises(geometry.DomainError):
            geometry.transport(ak, xk)
    return bad


def test_transport_domain_matches_segment_distance():
    rng = np.random.default_rng(11)
    x = rng.uniform(-3, 3, (20000, 3))
    _transport_domain_agrees(rng.uniform(-3, 3, x.shape), x)  # random pairs
    _transport_domain_agrees(np.zeros(3), x)                   # a = 0
    x = x[:1000]
    u = x / np.linalg.norm(x, axis=-1)[:, None]
    w = np.cross(u, rng.standard_normal(x.shape))
    w /= np.linalg.norm(w, axis=-1)[:, None]
    r = rng.uniform(0.5, 3.0, (len(x), 1))
    t = rng.uniform(0.05, 0.95, (len(x), 1))
    delta = geometry.SEGMENT_MARGIN * 10.0 ** rng.uniform(-3, 3, (len(x), 1))
    # on both sides of the margin: a segment of length r whose closest
    # point, a fraction t along it, lies delta r from the origin; a
    # radial segment ending delta |x| from the origin; and one ending
    # delta r off the origin, to the side
    for a, start in ((r * u, delta * r * w - t * r * u),
                     (-(1.0 - delta) * x, x),
                     (delta * r * w - x, x)):
        bad = _transport_domain_agrees(a, start)
        assert bad.any() and not bad.all()
    # radial: outward, inward short of the origin, and through it
    for scale in (0.7, -0.5, -1.5, -2.0):
        _transport_domain_agrees(scale * x, x)


def test_transport_is_unit_just_outside_the_margin():
    # accepted segments whose closest point lies delta max(|x|, |y|) from
    # the origin, delta from 1.5e-6 to 1e-2: nearly anti-parallel ends,
    # where |x||y| + x.y cancels; the rounding error is about 1e-16/delta
    rng = np.random.default_rng(12)
    m = 20000
    u = rng.standard_normal((m, 3))
    u /= np.linalg.norm(u, axis=-1)[:, None]
    w = np.cross(u, rng.standard_normal((m, 3)))
    w /= np.linalg.norm(w, axis=-1)[:, None]
    t1, t2 = rng.uniform(0.5, 3.0, (2, m, 1))
    delta = 10.0 ** rng.uniform(np.log10(1.5e-6), -2.0, (m, 1))
    x = delta * np.maximum(t1, t2) * w - t1 * u
    a = (t1 + t2) * u
    rel = geometry.segment_origin_distance(x, x + a) / np.maximum(
        np.linalg.norm(x, axis=-1), np.linalg.norm(x + a, axis=-1))
    assert rel.min() > geometry.SEGMENT_MARGIN
    wq = geometry.transport(a, x)
    assert np.abs(quat.qnorm(wq) - 1.0).max() < 1e-9
    lhs = quat.qmul(wq, quat.qmul(geometry.dirq(x), quat.qconj(wq)))
    assert quat.qnorm(lhs - geometry.dirq(x + a)).max() < 1e-9


def test_transport_sign_variant_not_unitary():
    rng = np.random.default_rng(6)
    a, x = admissible_pairs(rng, 2000)
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(x + a, axis=1)
    ax = np.sum(a * x, axis=1)
    cosang = np.abs(ax) / (np.linalg.norm(a, axis=1) * nx)
    # within the real domain of the printed radicands (no clamping) ...
    plain = ((nx**2 + ax) / (nx * ny) > -1.0) & ((nx**2 - ax) / (nx * ny) < 1.0)
    w = oracles.transport_sign_variant(a, x)
    dev = np.abs(quat.qnorm(w) ** 2 - 1.0)
    # ... the unitarity defect is exactly |a.x| / (|x||x+a|)
    assert np.abs(dev[plain] - np.abs(ax[plain]) / (nx * ny)[plain]).max() < 1e-12
    # and for generic non-orthogonal pairs it exceeds the 1e-2 scale
    generic = plain & (cosang > 0.2) & (cosang < 0.98) & \
        (np.linalg.norm(a, axis=1) > 0.3 * ny)
    assert generic.sum() > 100
    assert dev[generic].min() > 1e-2


def test_cocycle():
    rng = np.random.default_rng(7)
    a, x = admissible_pairs(rng, 3000)
    s = rng.uniform(-1, 1, len(a))
    t = rng.uniform(-1, 1, len(a))
    ok = np.ones(len(a), dtype=bool)
    for start, disp in ((x, s[:, None] * a),
                        (x + s[:, None] * a, t[:, None] * a),
                        (x, (s + t)[:, None] * a)):
        ok &= np.linalg.norm(start + disp, axis=1) > 0.3
        ok &= geometry.segment_origin_distance(start, start + disp) > 1e-2
    a, x, s, t = a[ok], x[ok], s[ok], t[ok]
    lhs = quat.qmul(geometry.transport(t[:, None] * a, x + s[:, None] * a),
                    geometry.transport(s[:, None] * a, x))
    rhs = geometry.transport((s + t)[:, None] * a, x)
    assert quat.qnorm(lhs - rhs).max() < 1e-12


def test_triflux_octant():
    tri = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert geometry.triflux(tri) == pytest.approx(np.pi / 4.0, abs=1e-14)
    # independent quadrature oracle
    assert geometry.triflux(tri) == pytest.approx(flux_by_quadrature(*tri), abs=1e-8)


def test_triflux_against_quadrature_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        tri = rng.uniform(-2, 2, (3, 3))
        if np.linalg.norm(tri, axis=1).min() < 0.5:
            continue
        num = np.dot(np.cross(tri[0], tri[1]), tri[2])
        if abs(num) < 0.1:
            continue
        assert geometry.triflux(tri) == pytest.approx(
            flux_by_quadrature(*tri), abs=1e-7)


def test_triflux_degenerate_and_radial():
    tri = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    assert geometry.triflux(tri) == 0.0
    # triangle in a plane through the origin: radial field is tangent
    tri = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 2.0, 0]])
    assert geometry.triflux(tri) == pytest.approx(0.0, abs=1e-14)


def test_triflux_antisymmetry():
    rng = np.random.default_rng(9)
    tri = rng.uniform(0.5, 2.0, (50, 3, 3))
    swapped = tri[:, [0, 2, 1], :]
    assert np.abs(geometry.triflux(tri) + geometry.triflux(swapped)).max() < 1e-14


def test_solid_angle_domain_error():
    # origin strictly inside a triangle lying in the z = 0 plane
    with pytest.raises(geometry.DomainError):
        geometry.solid_angle([2.0, 0.0, 0.0], [-1.0, 1.5, 0.0], [-1.0, -1.5, 0.0])


def test_tetraflux_enclosing():
    # the symmetric tetra (1,1,1), (-2,1,1), (1,-2,1), (1,1,-2) puts the
    # origin exactly on the face opposite (1,1,1) (plane x+y+z = 0, centroid
    # at 0): that is the documented domain error, not an enclosing case
    with pytest.raises(geometry.DomainError):
        geometry.tetraflux(np.array([1.0, 1, 1]), np.array([-3.0, 0, 0]),
                           np.array([3.0, -3.0, 0]), np.array([0.0, 3.0, -3.0]))
    # pushing that face outward gives a genuinely enclosing tetrahedron
    x = np.array([1.0, 1.0, 1.0])
    a = np.array([-4.0, 0.0, 0.0])
    b = np.array([4.0, -4.0, 0.0])
    c = np.array([0.0, 4.0, -4.0])
    assert geometry.origin_inside_tetrahedron(x, a, b, c)
    assert not geometry.origin_near_tet_face(x, a, b, c)
    assert geometry.tetraflux(x, a, b, c) == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_tetraflux_outside_zero():
    val = geometry.tetraflux(np.array([1.0, 0.5, 0.5]), np.array([1.0, 0, 0]),
                             np.array([0.0, 1.0, 0]), np.array([0.0, 0, 1.0]))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_tetraflux_relabel_invariance():
    x = np.array([1.0, 1, 1])
    a = np.array([-4.0, 0, 0])
    b = np.array([4.0, -4.0, 0])
    c = np.array([0.0, 4.0, -4.0])
    v1 = geometry.tetraflux(x, a, b, c)
    # walk the same tetrahedron from another corner
    v2 = geometry.tetraflux(x + a, b, c, -(a + b + c))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_tetraflux_quantization_random():
    rng = np.random.default_rng(10)
    x = rng.uniform(-2, 2, (5000, 3))
    a = rng.uniform(-1.5, 1.5, (5000, 3))
    b = rng.uniform(-1.5, 1.5, (5000, 3))
    c = rng.uniform(-1.5, 1.5, (5000, 3))
    keep = ~geometry.origin_near_tet_face(x, a, b, c)
    x, a, b, c = x[keep], a[keep], b[keep], c[keep]
    flux = geometry.tetraflux(x, a, b, c)
    inside = geometry.origin_inside_tetrahedron(x, a, b, c)
    assert inside.sum() > 10  # the sample must exercise both branches
    assert np.abs(flux - np.where(inside, 2 * np.pi, 0.0)).max() < 1e-9


def test_multiplier_identities():
    rng = np.random.default_rng(11)
    a, x = admissible_pairs(rng, 4000)
    b = rng.uniform(-1.5, 1.5, (len(a), 3))
    ok = np.ones(len(a), dtype=bool)
    for start, disp in ((x, b), (x + b, a), (x, a + b)):
        ok &= np.linalg.norm(start + disp, axis=1) > 0.3
        ok &= geometry.segment_origin_distance(start, start + disp) > 1e-2
    a, b, x = a[ok], b[ok], x[ok]

    m = geometry.multiplier(a, b, x)
    assert np.abs(quat.qnorm(m) - 1.0).max() < 1e-13

    flux = geometry.triflux(geometry.multiplier_flux_triangle(a, b, x))
    assert quat.qnorm(m - quat.qexp(geometry.dirq(x) * flux[:, None])).max() < 1e-9

    assert quat.qnorm(geometry.multiplier(a, np.zeros(3), x) - quat.E0).max() < 1e-13


def test_multiplier_flux_triangle_vertices():
    a = np.array([1.0, 0, 0])
    b = np.array([0.0, 1.0, 0])
    x = np.array([0.0, 0, 2.0])
    tri = geometry.multiplier_flux_triangle(a, b, x)
    assert np.array_equal(tri, np.array([x, x + b, x + a + b]))


def test_curvature_components():
    cs = geometry.curvature(np.array([0.0, 0.0, 1.0]))
    assert cs.kappa[0, 1] == pytest.approx(-0.5, abs=0)
    assert cs.kappa[1, 0] == pytest.approx(0.5, abs=0)
    assert np.abs(cs.kappa[:, 2]).max() == 0.0
    assert np.abs(cs.kappa[2, :]).max() == 0.0
    # omega = kappa * xhat
    assert np.abs(cs.omega[2] - cs.kappa).max() == 0.0
    assert np.abs(cs.omega[0]).max() == 0.0


def test_curvature_antisymmetry_random():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, (200, 3))
    x = x[np.linalg.norm(x, axis=1) > 0.3]
    cs = geometry.curvature(x)
    assert np.abs(cs.kappa + np.swapaxes(cs.kappa, -1, -2)).max() == 0.0


def test_chern_quadrature():
    val = geometry.chern(256)
    assert abs(val - 2.0 * np.pi) < 1e-6
    assert abs(geometry.chern(256, radius=7.0) - 2.0 * np.pi) < 1e-6
    assert abs(geometry.chern(256, reverse=True) + 2.0 * np.pi) < 1e-6


def test_chern_convergence_order():
    errs = [abs(geometry.chern(n) - 2.0 * np.pi) for n in (8, 16, 32)]
    assert 8.0 < errs[0] / errs[1] < 32.0
    assert 8.0 < errs[1] / errs[2] < 32.0


def test_chern_validation():
    with pytest.raises(ValueError):
        geometry.chern(4)
    with pytest.raises(ValueError):
        geometry.chern(9)
    with pytest.raises(ValueError):
        geometry.chern(16, radius=-1.0)
