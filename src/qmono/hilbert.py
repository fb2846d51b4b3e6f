"""Quaternion-valued wavefunctions on an origin-avoiding lattice.

The square-integrable quaternion-valued functions on R^3 are discretized on
a cell-centered cubic grid over ``[-L, L]^3``: with ``n`` (even) points per
axis every sample coordinate is an odd multiple of ``L/n``, so the deleted
origin is never sampled and every monopole formula stays finite.

Scalars act on the RIGHT (``rscale``), operators on the left; the inner
product is the cell-volume-weighted Riemann sum

    inner(phi, psi) = h^3 sum_x  phi(x)* psi(x),

conjugate-linear in the first factor and linear in the second:
``inner(phi q1, psi q2) = q1* inner(phi, psi) q2``.

A field is either a callable ``x -> quaternion`` (analytic representation,
evaluable anywhere) or a ``LatticeField`` (samples on a ``LatticeSpec``);
``sample`` converts the former to the latter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quat


@dataclass(frozen=True)
class LatticeSpec:
    """Cell-centered cubic grid: ``n`` points per axis on ``[-box, box]^3``.

    ``n`` must be even and >= 4 so that no sample coordinate hits the origin.
    """

    n: int
    box: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("LatticeSpec.n must be even and >= 4")
        if not 0.0 < self.box < np.inf:
            raise ValueError("LatticeSpec.box must be positive and finite")

    @property
    def step(self) -> float:
        return 2.0 * self.box / self.n

    @property
    def cell_volume(self) -> float:
        return self.step**3

    def axis(self) -> np.ndarray:
        """The n per-axis coordinates, odd multiples of box/n."""
        return (2.0 * np.arange(self.n) + 1.0 - self.n) * (self.box / self.n)

    @functools.lru_cache(maxsize=8)
    def points(self) -> np.ndarray:
        """All sample points, shape (n, n, n, 3), read-only and cached per lattice."""
        ax = self.axis()
        x1, x2, x3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([x1, x2, x3], axis=-1)
        pts.setflags(write=False)
        return pts


@dataclass
class LatticeField:
    """Quaternion field sampled on a lattice: values of shape (n, n, n, 4).

    Treated as an immutable snapshot; operations allocate new fields.
    """

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.spec.n
        if self.values.shape != (n, n, n, 4):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, got {self.values.shape}")


def sample(spec: LatticeSpec, fn) -> LatticeField:
    """Sample an analytic field ``fn: (..., 3) -> (..., 4)`` onto the lattice."""
    vals = np.asarray(fn(spec.points()), dtype=float)
    return LatticeField(spec, vals)


def constant(spec: LatticeSpec, q) -> LatticeField:
    """The constant field with value ``q`` at every site."""
    q = np.asarray(q, dtype=float)
    return LatticeField(spec, np.broadcast_to(q, (spec.n, spec.n, spec.n, 4)).copy())


def _require_matching(phi: LatticeField, psi: LatticeField):
    if phi.spec != psi.spec:
        raise ValueError("lattice specs do not match")


def inner(phi: LatticeField, psi: LatticeField) -> np.ndarray:
    """Quaternion-valued inner product (conjugate-linear in ``phi``).

    One 4x4 Gram product ``G_ab = sum_x phi_a(x) psi_b(x)``; each component
    of ``sum_x phi(x)* psi(x)`` is a signed sum of four of its entries.
    """
    _require_matching(phi, psi)
    g = phi.values.reshape(-1, 4).T @ psi.values.reshape(-1, 4)
    prod = np.array([
        g[0, 0] + g[1, 1] + g[2, 2] + g[3, 3],
        g[0, 1] - g[1, 0] - g[2, 3] + g[3, 2],
        g[0, 2] + g[1, 3] - g[2, 0] - g[3, 1],
        g[0, 3] - g[1, 2] + g[2, 1] - g[3, 0],
    ])
    return prod * phi.spec.cell_volume


def norm(psi: LatticeField) -> float:
    """Hilbert norm sqrt(inner(psi, psi))."""
    v = psi.values.reshape(-1)
    return float(np.sqrt(np.dot(v, v) * psi.spec.cell_volume))


def rscale(psi: LatticeField, q) -> LatticeField:
    """Right scalar action ``psi -> psi q`` (pointwise right multiplication)."""
    return LatticeField(psi.spec, quat.rmul(psi.values, q))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lo, hi)`` used as a spectral (Borel) set."""

    lo: tuple
    hi: tuple

    @staticmethod
    def of(lo, hi) -> "Box":
        return Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))

    def translate(self, a) -> "Box":
        a = np.asarray(a, dtype=float)
        return Box.of(np.asarray(self.lo) + a, np.asarray(self.hi) + a)


def project(delta: Box, psi: LatticeField) -> LatticeField:
    """Spectral projection: zero the samples outside ``delta``.

    Idempotent, self-adjoint, multiplicative over intersections; commutes
    bit-exactly with every pointwise left multiplication.  The sites with
    ``lo <= x_i < hi`` on every axis form one index block, since the axis
    coordinates are sorted: it is copied into zeros.
    """
    ax = psi.spec.axis()
    block = tuple(slice(*np.searchsorted(ax, (lo, hi))) for lo, hi in zip(delta.lo, delta.hi))
    out = np.zeros(psi.values.shape)
    out[block] = psi.values[block]
    return LatticeField(psi.spec, out)
