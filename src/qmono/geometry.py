"""Pointwise monopole geometry.

Everything here lives on punctured space: the monopole sits at the origin,
positions must have ``|x| > 0``, and the field is ``B(x) = x / (2|x|^3)``
(total flux 2 pi through any surface enclosing the origin).

The parallel-transport quaternion ``transport(a, x)`` carries the fiber from
``x`` to ``x + a`` and is the half-angle rotation about ``x cross a``:

    w = sqrt((1 + c)/2) + j(x cross a) sqrt((1 - c)/2),
    c = (|x|^2 + a.x) / (|x| |x + a|)  = cos(angle(x, x + a)).

Both radicands carry the ``+a.x`` inner sign; this is forced by unitarity
(``w w* = 1``).  The variant with the second radicand's inner sign flipped
circulates in some derivations; it has ``|w|^2 = 1 + a.x/(|x||x+a|)``, and
the tests keep it (``tests/oracles.py``) as a negative control.

Functions broadcast over leading axes: pass arrays of shape (..., 3) to
evaluate many configurations at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat

#: ``transport`` rejects segments that pass closer to the origin than this
#: fraction of max(|x|, |x+a|): its rounding error, about 1e-16 divided by
#: that fraction, would exceed 1e-10 there (lattice shifts clear it by far)
SEGMENT_MARGIN = 1e-6

#: ``slice_frame`` rejects directions within this distance of the ray
#: opposite to ``omega`` (measured as ``|x/|x| + omega|``, close to the angle
#: in radians): the frame's rounding error, about 1e-16 divided by that
#: distance, would exceed 1e-10 there
FRAME_MARGIN = 1e-6


class DomainError(ValueError):
    """Input touches the monopole location (or the excluded segment set)."""


def _norm(v):
    return np.sqrt(np.sum(v * v, axis=-1))


def dirq(x) -> np.ndarray:
    """Radial direction quaternion ``j(x) = e . x / |x|``.

    An imaginary unit at every point: ``j(x)^2 = -e0``; scale invariant.
    """
    x = np.asarray(x, dtype=float)
    n = _norm(x)
    if np.any(n == 0.0):
        raise DomainError("dirq undefined at the origin (monopole location)")
    return quat.from_vector(x / n[..., None])


def slice_frame(points, omega) -> np.ndarray:
    """Unit quaternion field q(x) with ``dirq(x) q(x) = q(x) omega``.

    The half-angle rotation aligning the slice axis with the radial
    direction, evaluated through ``s = x/|x| + omega`` so that ``|s|^2 =
    2 (1 + cos)`` carries no cancellation near the singular ray opposite
    to ``omega``.  Raises DomainError at the origin and for sites within
    ``FRAME_MARGIN`` of that ray (a cell-centered lattice never samples it
    for ``omega = e3``).
    """
    x = np.asarray(points, dtype=float)
    w = np.asarray(omega, dtype=float)[..., 1:]
    nx = _norm(x)
    if np.any(nx == 0.0):
        raise DomainError("slice_frame undefined at the origin")
    xhat = x / nx[..., None]
    s = xhat + w
    ns = _norm(s)
    if np.any(ns < FRAME_MARGIN):
        raise DomainError("slice_frame undefined on the ray opposite to omega")
    out = np.empty(x.shape[:-1] + (4,))
    out[..., 0] = 0.5 * ns
    out[..., 1:] = np.cross(w, xhat) / ns[..., None]
    return out


def bfield(x) -> np.ndarray:
    """Monopole field ``B(x) = x / (2 |x|^3)``; radial, magnitude 1/(2|x|^2)."""
    x = np.asarray(x, dtype=float)
    n = _norm(x)
    if np.any(n == 0.0):
        raise DomainError("bfield undefined at the origin")
    return x / (2.0 * n**3)[..., None]


def segment_origin_distance(x, y) -> np.ndarray:
    """Minimum distance from the segment [x, y] to the origin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    dd = np.sum(d * d, axis=-1)
    # parameter of the closest point, clamped to the segment
    t = np.where(dd > 0.0, -np.sum(x * d, axis=-1) / np.where(dd > 0.0, dd, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = x + t[..., None] * d
    return _norm(closest)


def _plane_norm(planes):
    """``|x|`` from the three coordinate planes of ``x``, added in order."""
    x0, x1, x2 = planes
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _far_end(xs, a):
    """The coordinate planes of ``y = x + a``, ``|y|`` and the planes of
    ``x cross y`` (which equals ``x cross a``), from the planes of ``x``."""
    x0, x1, x2 = xs
    a0, a1, a2 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    y0, y1, y2 = x0 + a0, x1 + a1, x2 + a2
    v = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    return (y0, y1, y2), _plane_norm((y0, y1, y2)), v


def _segment(a, x):
    """The coordinate planes of ``x`` and ``y = x + a``, ``|x|``, ``|y|``
    and the planes of ``x cross y``, each computed once, and the transport
    domain test decided from them.

    Raises DomainError where an endpoint is the origin, and where
    ``segment_origin_distance(x, y) <= SEGMENT_MARGIN * max(|x|, |y|)``:
    with ``d = y - x``, the segment's closest point lies strictly inside it
    iff ``0 < -x.d < |d|^2``, and its distance is then ``|x cross y| /
    |d|``; otherwise it is the nearer endpoint (``d = 0`` included).
    """
    x0, x1, x2 = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
    (y0, y1, y2), ny, v = _far_end((x0, x1, x2), a)
    nx = _plane_norm((x0, x1, x2))
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise DomainError("transport endpoint at the origin")
    d0, d1, d2 = y0 - x0, y1 - x1, y2 - x2
    dd = d0 * d0 + d1 * d1 + d2 * d2
    xd = x0 * d0 + x1 * d1 + x2 * d2
    lim = SEGMENT_MARGIN * np.maximum(nx, ny)
    bad = np.where((xd < 0.0) & (-xd < dd),
                   v[0] * v[0] + v[1] * v[1] + v[2] * v[2] <= lim * lim * dd,
                   np.minimum(nx, ny) <= lim)
    if np.any(bad):
        idx = np.argwhere(bad)
        raise DomainError(
            "transport segment passes through (or within margin of) the origin; "
            f"first offending configuration index {tuple(idx[0])}"
        )
    return (x0, x1, x2), (y0, y1, y2), nx, ny, v


def _transport_value(xhat, nx, ys, ny, v):
    """``transport``'s quaternion from the planes of ``x/|x|``, ``|x|``, the
    far end's planes and ``|y|``, and the planes ``v`` of ``x cross y``.
    Written plane by plane: the ``(..., 4)`` view of a ``(4, ...)`` array,
    whose components ``quat.qmul`` reads without a copy."""
    s = [xh + yk / ny for xh, yk in zip(xhat, ys)]
    ns = _plane_norm(s)
    out = np.empty((4,) + np.shape(v[0]))
    out[0] = 0.5 * ns
    r = nx * ny * ns
    for k in range(3):
        out[k + 1] = v[k] / r
    return np.moveaxis(out, 0, -1)


def transport(a, x) -> np.ndarray:
    """Parallel-transport quaternion from ``x`` to ``x + a``.

    Unit by construction; equals ``e0`` when ``a = 0`` or ``x`` and ``x + a``
    are parallel.  Evaluated, like ``slice_frame``, through ``s = x/|x| +
    y/|y|``, whose ``|s|^2 = 2 (1 + c)`` carries no cancellation near the
    anti-parallel case: ``w = |s|/2 + e . (x cross y) / (|x| |y| |s|)``.
    Raises DomainError when the segment [x, x+a] meets the origin (within
    SEGMENT_MARGIN).
    """
    xs, ys, nx, ny, v = _segment(a, x)
    return _transport_value(tuple(xk / nx for xk in xs), nx, ys, ny, v)


def solid_angle(v1, v2, v3) -> np.ndarray:
    """Signed solid angle subtended at the origin by the triangle (v1, v2, v3).

    Van Oosterom-Strackee: ``Omega = 2 atan2(det[v1 v2 v3], D)`` with
    ``D = |v1||v2||v3| + (v1.v2)|v3| + (v1.v3)|v2| + (v2.v3)|v1|``.
    Sign follows the vertex orientation; swapping two vertices flips it.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    v3 = np.asarray(v3, dtype=float)
    n1, n2, n3 = _norm(v1), _norm(v2), _norm(v3)
    if np.any(n1 == 0.0) or np.any(n2 == 0.0) or np.any(n3 == 0.0):
        raise DomainError("solid_angle: vertex at the origin")
    num = np.sum(np.cross(v1, v2) * v3, axis=-1)
    den = (
        n1 * n2 * n3
        + np.sum(v1 * v2, axis=-1) * n3
        + np.sum(v1 * v3, axis=-1) * n2
        + np.sum(v2 * v3, axis=-1) * n1
    )
    if np.any((num == 0.0) & (den < 0.0)):
        raise DomainError("solid_angle: origin lies on the triangle surface")
    return 2.0 * np.arctan2(num, den)


def triflux(triangle) -> np.ndarray:
    """Flux of the monopole field through an oriented flat triangle.

    ``triangle`` is (..., 3, 3): three vertices along the second-to-last
    axis.  Equals half the signed solid angle the triangle subtends at the
    origin (closed form, no quadrature).
    """
    t = np.asarray(triangle, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError("triangle must have shape (..., 3, 3)")
    return 0.5 * solid_angle(t[..., 0, :], t[..., 1, :], t[..., 2, :])


def _tet_vertices(x, a, b, c):
    p0 = np.asarray(x, dtype=float)
    p1 = p0 + np.asarray(a, dtype=float)
    p2 = p1 + np.asarray(b, dtype=float)
    p3 = p2 + np.asarray(c, dtype=float)
    return p0, p1, p2, p3


def tetraflux(x, a, b, c) -> np.ndarray:
    """Total outward flux through the tetrahedron with edge walk (a, b, c).

    Vertices are ``x, x+a, x+a+b, x+a+b+c``.  The result is 2 pi when the
    origin lies inside and 0 when outside, independent of vertex labelling.
    """
    p0, p1, p2, p3 = _tet_vertices(x, a, b, c)
    orient = np.sign(np.sum(np.cross(p1 - p0, p2 - p0) * (p3 - p0), axis=-1))
    total = (
        0.5 * solid_angle(p1, p2, p3)
        + 0.5 * solid_angle(p0, p3, p2)
        + 0.5 * solid_angle(p0, p1, p3)
        + 0.5 * solid_angle(p0, p2, p1)
    )
    return orient * total


def _tet_volumes(x, a, b, c):
    """Vertices, signed volume, and the four signed volumes with the origin
    in place of one vertex each (the origin's barycentric coordinates
    times the volume) of the tetrahedron with edge walk (a, b, c)."""
    verts = _tet_vertices(x, a, b, c)

    def vol(q, r, s, t):
        return np.sum(np.cross(r - q, s - q) * (t - q), axis=-1)

    o = np.zeros(3)
    subs = [vol(*(o if i == k else p for i, p in enumerate(verts))) for k in range(4)]
    return verts, vol(*verts), subs


def origin_inside_tetrahedron(x, a, b, c) -> np.ndarray:
    """Point-in-tetrahedron test for the origin, by signed sub-volumes.

    Independent of the solid-angle machinery (used as an oracle against
    ``tetraflux``): inside iff all four barycentric coordinates are positive.
    """
    _, total, subs = _tet_volumes(x, a, b, c)
    lams = np.stack([sub / total for sub in subs], axis=-1)
    return np.all(lams > 0.0, axis=-1)


def origin_near_tet_face(x, a, b, c) -> np.ndarray:
    """True where the origin sits within 1e-3 of a face (in barycentric
    coordinates), the tetrahedron is degenerate, or a vertex lies within
    0.05 of the origin: there ``tetraflux`` is ill-conditioned."""
    verts, total, subs = _tet_volumes(x, a, b, c)
    bad = np.abs(total) < 1e-9
    safe_total = np.where(bad, 1.0, total)
    for lam in subs:
        bad |= np.abs(lam / safe_total) < 1e-3
    for p in verts:
        bad |= np.linalg.norm(p, axis=-1) < 0.05
    return bad


def multiplier(a, b, x) -> np.ndarray:
    """Composition defect of two transported translations.

    ``m(a, b; x) = transport(a+b; x)* transport(a; x+b) transport(b; x)`` --
    the holonomy of the loop x -> x+b -> x+a+b -> x.  A unit quaternion in
    the complex slice of ``j(x)``; equals ``qexp(j(x) * Phi)`` with ``Phi``
    the flux through ``multiplier_flux_triangle(a, b, x)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    w_ab = transport(a + b, x)
    w_a = transport(a, x + b)
    w_b = transport(b, x)
    return quat.qmul(quat.qconj(w_ab), quat.qmul(w_a, w_b))


def multiplier_flux_triangle(a, b, x) -> np.ndarray:
    """The oriented flat triangle whose flux generates ``multiplier(a, b, x)``.

    Vertices ``(x, x+b, x+a+b)`` -- the loop surface in path order, so that
    ``multiplier(a, b, x) = qexp(dirq(x) * triflux(...))`` holds exactly.
    Returns shape (..., 3, 3).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.stack([x, x + b, x + a + b], axis=-2)


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature of the monopole connection at a point.

    ``kappa[..., i, j] = -eps_ijk x^k / (2 |x|^3)`` is the two-form whose
    sphere integral is the Chern number; ``omega[..., r, i, j] =
    kappa[..., i, j] * x^r / |x|`` are its su(2) components.  Both are
    antisymmetric in (i, j).
    """

    omega: np.ndarray
    kappa: np.ndarray


def _skew(x):
    # skew(x)[i, j] = eps_ijk x_k
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (3, 3))
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    out[..., 0, 1] = x3
    out[..., 1, 0] = -x3
    out[..., 0, 2] = -x2
    out[..., 2, 0] = x2
    out[..., 1, 2] = x1
    out[..., 2, 1] = -x1
    return out


def _kappa(x):
    """``(kappa, |x|)`` at ``x``: the two-form of CurvatureSample, formed in
    place in ``_skew``'s array; DomainError at the origin."""
    n = _norm(x)
    if np.any(n == 0.0):
        raise DomainError("curvature undefined at the origin")
    kappa = _skew(x)
    kappa /= (-2.0 * n**3)[..., None, None]
    return kappa, n


def curvature(x) -> CurvatureSample:
    """Closed-form curvature two-forms at ``x`` (see CurvatureSample)."""
    x = np.asarray(x, dtype=float)
    kappa, n = _kappa(x)
    omega = kappa[..., None, :, :] * (x / n[..., None])[..., :, None, None]
    return CurvatureSample(omega=omega, kappa=kappa)


def chern(n: int, radius: float = 1.0, reverse: bool = False) -> float:
    """Integral of the curvature two-form over a sphere around the origin.

    Product quadrature on an ``n`` by ``n`` grid: composite Simpson in the
    polar angle (``n`` intervals, even), periodic trapezoid in azimuth
    (``n`` points).  Converges to 2 pi at fourth order in the default
    orientation (the one in which the enclosed monopole charge counts
    positive); radius drops out exactly.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("chern requires an even n >= 8 (Simpson rule)")
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")

    theta = np.linspace(0.0, np.pi, n + 1)
    phi = np.arange(n) * (2.0 * np.pi / n)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")

    st, ct = np.sin(tg), np.cos(tg)
    sp, cp = np.sin(pg), np.cos(pg)
    x = radius * np.stack([st * cp, st * sp, ct], axis=-1)
    d_theta = radius * np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = radius * np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)

    kappa = _kappa(x)[0]  # omega, three times kappa's size, is not needed
    u, v = (d_theta, d_phi) if reverse else (d_phi, d_theta)
    integrand = np.einsum("...ij,...i,...j->...", kappa, u, v)

    w_theta = np.ones(n + 1)
    w_theta[1:-1:2] = 4.0
    w_theta[2:-1:2] = 2.0
    w_theta *= (np.pi / n) / 3.0
    return float(np.sum(integrand * w_theta[:, None]) * (2.0 * np.pi / n))
