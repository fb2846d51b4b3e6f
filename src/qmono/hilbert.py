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
``sample`` converts the former to the latter.  ``gaussian_field`` is the
analytic bump that the suites and the slice sampler draw, one field or a
batch of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quat


@dataclass(frozen=True)
class LatticeSpec:
    """Cell-centered cubic grid: ``n`` points per axis on ``[-box, box]^3``.

    ``n`` must be an integer (TypeError else, whole floats included), even
    and >= 4 so that no sample coordinate hits the origin.  ``box`` must be
    positive and such that floats hold the lattice: the cell volume ``h^3``
    a normal float, and the box volume ``(2 box)^3`` at least six decades
    below the largest float (``box`` below about 2.8e100).  Then every
    site's ``|x|^2`` is finite and nonzero, and so is ``norm`` of a field
    with entries of unit scale, ``h^3`` times a sum of ``n^3`` squares.
    """

    n: int
    box: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise TypeError(f"LatticeSpec.n must be an integer, got {self.n!r}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("LatticeSpec.n must be even and >= 4")
        if not 0.0 < self.box < np.inf:
            raise ValueError("LatticeSpec.box must be positive and finite")
        # compared as sides, before a volume that may overflow is formed
        if 2.0 * self.box > (1e-6 * np.finfo(float).max) ** (1.0 / 3.0):
            raise ValueError(f"LatticeSpec.box = {self.box:g} is too large: the box volume "
                             f"(2 box)^3 must stay six decades below the largest float")
        if self.cell_volume < np.finfo(float).tiny:
            raise ValueError(f"LatticeSpec.box = {self.box:g} is too small for n = {self.n}: "
                             f"the cell volume (2 box / n)^3 must be a normal float")

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


class LatticeField:
    """Quaternion field sampled on a lattice: values of shape (n, n, n, 4).

    ``LatticeField(spec, values)`` holds whole values: its ``support`` is
    None and its ``block`` its values.  ``of_block`` makes a field that holds
    only ``block``, its values on ``support``, three slices of sites off
    which it is zero; its ``values`` are formed on first read, read-only.
    A block may view another field's values, so a field is an immutable
    snapshot: its values are never edited in place.
    """

    support = None

    def __init__(self, spec: LatticeSpec, values: np.ndarray):
        n = spec.n
        if values.shape != (n, n, n, 4):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, got {values.shape}")
        self.spec = spec
        self.values = values

    @classmethod
    def of_block(cls, spec: LatticeSpec, block: np.ndarray, support: tuple) -> "LatticeField":
        """The field that is ``block`` on the sites ``support`` and zero elsewhere."""
        field = cls.__new__(cls)
        field.spec, field.block, field.support = spec, block, support
        return field

    @functools.cached_property
    def block(self) -> np.ndarray:
        return self.values

    @functools.cached_property
    def values(self) -> np.ndarray:
        vals = self.block[...]  # a block of the whole grid is the values
        if vals.shape[:3] != (self.spec.n,) * 3:
            vals = np.zeros((self.spec.n,) * 3 + (4,))
            vals[self.support] = self.block
        vals.setflags(write=False)
        return vals


def sample(spec: LatticeSpec, fn) -> LatticeField:
    """Sample an analytic field ``fn: (..., 3) -> (..., 4)`` onto the lattice."""
    vals = np.asarray(fn(spec.points()), dtype=float)
    return LatticeField(spec, vals)


def gaussian_field(center, width, amp):
    """Analytic Gaussian bump with a constant quaternion amplitude.

    The parameters may carry one leading batch axis (``center`` (B, 3),
    ``width`` (B,), ``amp`` (B, 4)); the field then maps points (..., 3)
    to values (B, ..., 4), field ``k`` of the batch at index ``k``.
    """
    center = np.asarray(center, dtype=float)
    width = np.asarray(width, dtype=float)
    amp = np.asarray(amp, dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        pad = (1,) * (x.ndim - 1)  # the points' own axes, after the batch axis
        c = center.reshape(center.shape[:-1] + pad + (3,))
        # w^2 by C pow, which rounds as a Python float's ``**`` does (numpy's
        # ``**2`` squares, and differs in the last bit for a few widths in
        # 10^4), so a batch keeps the bits of its fields taken one by one
        w2 = np.float_power(width, 2.0).reshape(width.shape + pad)
        env = np.exp(-np.sum((x - c) ** 2, axis=-1) / (2.0 * w2))
        return env[..., None] * amp.reshape(amp.shape[:-1] + pad + (4,))

    return fn


def constant(spec: LatticeSpec, q) -> LatticeField:
    """The constant field with value ``q`` at every site."""
    q = np.asarray(q, dtype=float)
    return LatticeField(spec, np.broadcast_to(q, (spec.n, spec.n, spec.n, 4)).copy())


def inner(phi: LatticeField, psi: LatticeField) -> np.ndarray:
    """Quaternion-valued inner product (conjugate-linear in ``phi``).

    One 4x4 Gram product ``G_ab = sum_x phi_a(x) psi_b(x)``; each component
    of ``sum_x phi(x)* psi(x)`` is a signed sum of four of its entries.
    """
    if phi.spec != psi.spec:
        raise ValueError("lattice specs do not match")
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


def intersect_blocks(a: tuple, b: tuple | None) -> tuple:
    """The intersection of the site blocks ``a`` and ``b``, three slices
    each (``b`` None is every site), as three slices, each with ``start
    <= stop``."""
    out = []
    for s, t in zip(a, a if b is None else b):
        lo = max(s.start, t.start)
        out.append(slice(lo, max(lo, min(s.stop, t.stop))))
    return tuple(out)


def translate_block(block: tuple, steps) -> tuple:
    """The site block ``block`` (three slices) moved by the integer ``steps``
    per axis, as three slices.  A block moved off the grid must be cut with
    ``intersect_blocks`` before it indexes, as a negative start would wrap."""
    return tuple(slice(s.start + int(m), s.stop + int(m)) for s, m in zip(block, steps))


def within(block: tuple, support: tuple | None) -> tuple:
    """The place of the site block ``block``, which lies in ``support``
    (None is every site), within the values held on ``support``."""
    return block if support is None else translate_block(block, [-s.start for s in support])


def project(delta: Box, psi: LatticeField) -> LatticeField:
    """Spectral projection: zero the samples outside ``delta``.

    Idempotent, self-adjoint, multiplicative over intersections; commutes
    bit-exactly with every pointwise left multiplication.  The sites with
    ``lo <= x_i < hi`` on every axis form one index block, since the axis
    coordinates are sorted: its intersection with ``psi``'s support is the
    result's support, and the result's block is a view of ``psi``'s block.
    """
    ax = psi.spec.axis()
    block = tuple(slice(*np.searchsorted(ax, (lo, hi))) for lo, hi in zip(delta.lo, delta.hi))
    block = intersect_blocks(block, psi.support)
    return LatticeField.of_block(psi.spec, psi.block[within(block, psi.support)], block)
