"""Reference definitions that only the tests use.

Each is an oracle or a negative control that the tests compare the
package against; none is called by a suite, the CLI or the benchmark, so
they live beside the tests instead of in the package.
"""

import numpy as np
from scipy import sparse

from qmono import geometry, hilbert, quat
from qmono.hilbert import LatticeField, LatticeSpec
from qmono.operators import (Compose, Diff, Operator, Scaled, _factors, _slice_gauge,
                             left_unit, position)


def transport_sign_variant(a, x) -> np.ndarray:
    """Transport with the second radicand's inner sign flipped.

    NOT unitary: ``|w|^2 = 1 + a.x/(|x||x+a|)``.  Kept only as a negative
    control; do not use for physics.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    _, _, nx, ny, _ = geometry._segment(a, x)
    ax = np.sum(a * x, axis=-1)
    c_plus = (nx**2 + ax) / (nx * ny)
    c_minus = (nx**2 - ax) / (nx * ny)
    v = np.cross(x, a)
    nv = geometry._norm(v)
    axis = np.where((nv > 0.0)[..., None], v / np.where(nv > 0.0, nv, 1.0)[..., None], 0.0)
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = np.sqrt(np.maximum(1.0 + c_plus, 0.0) / 2.0)
    out[..., 1:] = axis * np.sqrt(np.maximum(1.0 - c_minus, 0.0) / 2.0)[..., None]
    return out


class OpSum(Operator):
    def __init__(self, ops):
        self.ops = _factors(ops)
        self.spec = self.ops[0].spec

    def _apply(self, field):
        out = self.ops[0]._apply(field).values
        for op in self.ops[1:]:
            out = out + op._apply(field).values
        return LatticeField(self.spec, out)


def expectation(op: Operator, psi: LatticeField) -> float:
    """Normalized real expectation value Re inner(psi, A psi) / |psi|^2."""
    num = hilbert.inner(psi, op(psi))[0]
    den = hilbert.norm(psi) ** 2
    return float(num / den)


def rotgen(spec: LatticeSpec, axis: int) -> Operator:
    """Rotation generator about an axis: orbital part plus spin part.

    ``eps_{ijk} x_j d_k - e_i/2``; anti-hermitian, commutes with ``jop`` up
    to the stencil error, and closes the rotation algebra on positions and
    covariant derivatives.
    """
    j = (axis + 1) % 3
    k = (axis + 2) % 3
    orbital = OpSum((
        Compose((position(spec, j), Diff(spec, k))),
        Scaled(-1.0, Compose((position(spec, k), Diff(spec, j)))),
    ))
    return OpSum((orbital, Scaled(-0.5, left_unit(spec, axis))))


def frame_matrix_by_diags(spec: LatticeSpec, diag: float, hops: dict) -> sparse.csr_matrix:
    """A slice-frame matrix (H's of ``operators._frame_matrix``, or the CSR
    form of a ``covderiv`` ``LinkStencil``) built by
    ``scipy.sparse.diags(..., format="csr")`` from the cached links ``z``:
    ``diag`` on the diagonal and, per ``axis: (up, down)``, ``up z`` above it
    and ``down conj(z)`` below, the zero wall links dropped."""
    size = spec.n**3
    links = _slice_gauge(spec)[1]
    diagonals, offsets = ([np.full(size, diag)], [0]) if diag else ([], [])
    for axis, (up, down) in hops.items():
        stride = spec.n ** (2 - axis)
        z = links[axis].ravel()[:size - stride]
        diagonals += [up * z, down * z.conj()]
        offsets += [stride, -stride]
    return sparse.diags(diagonals, offsets, shape=(size, size), format="csr", dtype=complex)


def slice_gauge_whole_grid(spec: LatticeSpec):
    """The frame and U(1) links of ``operators._slice_gauge``, each formed on
    the whole grid at once: ``q = slice_frame(points, e3)``, and per axis
    the link ``z = q* plus q(x+h)`` with ``plus = transport(-step, points +
    step)``, zero where ``x+h`` lies beyond the wall."""
    pts = spec.points()
    q = geometry.slice_frame(pts, quat.E3)
    links = []
    for axis, step in enumerate(spec.step * np.eye(3)):
        plus = geometry.transport(-step, pts + step)
        here, there = [slice(None)] * 3, [slice(None)] * 3
        here[axis], there[axis] = slice(None, -1), slice(1, None)
        here, there = tuple(here), tuple(there)
        w = quat.qmul(quat.qconj(q[here]), quat.qmul(plus[here], q[there]))
        z = np.zeros(q.shape[:-1], dtype=complex)
        z[here] = w[..., 0] + 1j * w[..., 3]
        links.append(z)
    return q, tuple(links)


def chern_whole_grid(n: int, radius: float = 1.0, reverse: bool = False) -> float:
    """``geometry.chern``'s quadrature with every term formed on the whole
    ``(n+1, n)`` polar-azimuth grid at once, from its ``meshgrid`` planes;
    the arguments are not checked."""
    theta = np.linspace(0.0, np.pi, n + 1)
    phi = np.arange(n) * (2.0 * np.pi / n)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")

    st, ct = np.sin(tg), np.cos(tg)
    sp, cp = np.sin(pg), np.cos(pg)
    x = radius * np.stack([st * cp, st * sp, ct], axis=-1)
    d_theta = radius * np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = radius * np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)

    kappa = geometry._kappa(x)[0]
    u, v = (d_theta, d_phi) if reverse else (d_phi, d_theta)
    integrand = np.einsum("...ij,...i,...j->...", kappa, u, v)

    w_theta = np.ones(n + 1)
    w_theta[1:-1:2] = 4.0
    w_theta[2:-1:2] = 2.0
    w_theta *= (np.pi / n) / 3.0
    return float(np.sum(integrand * w_theta[:, None]) * (2.0 * np.pi / n))
