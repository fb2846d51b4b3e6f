"""Operator algebra on lattice fields.

Operators act on the left of quaternion-valued fields; a composite
applies its factors right-to-left: ``Compose((A, B))(psi) = A(B(psi))``,
written ``A B`` below.  The kinds are

* exact lattice shifts (``Shift``; Dirichlet zero fill off the block of
  sites that ``_overlap`` keeps) and left multipliers followed by a shift
  (``Multiplier``, a ``Shift``): pointwise with no steps (position, the
  radial complex structure ``jop``, the axis units, field components) and
  twisted (``twisted_shift``: a transport multiplier, then a shift, in one pass),
* frame operators (``FrameOp``: ``covderiv`` and ``hamiltonian``, which hop
  between neighbors through unit transport links).  They commute with
  ``jop``, so each is one complex sparse matrix in the gauge ``q(x) =
  slice_frame(x, e3)``, where every link is a U(1) phase; ``dynamics``
  evolves with the same matrices,
* plain difference stencils (``Diff``: zero-padded central differences,
  exactly antisymmetric in the lattice inner product),
* composites (``Compose``) and real multiples (``Scaled``) of the above;
  neither has an adjoint, which no path needs.

The slice frame has its one owner here: the gauge ``q``, a field's complex
columns ``psi = q (f1 + f2 e1)`` and ``_FrameField``, a field held as its
columns; ``dynamics`` reaches them through ``_frame_cols`` and ``_FrameField``.

The lattice factories take lattice data: a translation is an integer
step vector ``m`` of shape ``(3,)`` (the displacement ``a = m h``; a
non-integer dtype raises TypeError, another shape ValueError), a
derivative or a component an axis index 0, 1 or 2 (ValueError else).
Continuous displacements belong to ``geometry`` and to the analytic
``*_fn`` helpers below.

Conventions fixed here (and relied on by the verification suites):

* ``Shift(spec, m)``: ``psi -> psi(. - m h)``; conjugating a spectral
  projection translates its box by ``+m h``.
* ``twisted_shift(m)`` is ``Shift(m)`` after left multiplication by
  ``transport(m h; x)``, held as one operator; it is unitary and covariant
  over boxes.  Its continuum form ``(U(a) psi)(x) = transport(a; x - a)
  psi(x - a)`` has generator ``(U(s u) psi - psi)/s -> -grad_u psi`` as
  ``s -> 0``, with ``grad_u`` the covariant derivative ``covderiv_fn``.
* ``compose_defect(ma, mb) = twisted_shift(ma+mb)* twisted_shift(ma)
  twisted_shift(mb)`` is a pointwise multiplier whose symbol is
  ``geometry.multiplier(ma h, mb h, x)``.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from . import geometry, hilbert, quat
from .hilbert import LatticeField, LatticeSpec

_AXES = np.eye(3, dtype=int)  # the unit steps, also the axis unit vectors


def _overlap(steps, shape):
    """The blocks of sites ``src`` and ``dst = src + steps`` that both lie in
    a grid of ``shape``, as slice tuples; empty where a step spans an axis."""
    src, dst = [], []
    for m, size in zip(steps, shape):
        m = int(m)
        if abs(m) >= size:
            m, size = 0, 0  # no site stays
        src.append(slice(max(0, -m), size - max(0, m)))
        dst.append(slice(max(0, m), size - max(0, -m)))
    return tuple(src), tuple(dst)


class Operator:
    """Base class: an immutable description applied as a pure function."""

    spec: LatticeSpec

    def apply_values(self, vals: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, field: LatticeField) -> LatticeField:
        if field.spec != self.spec:
            raise ValueError("operator and field live on different lattices")
        return LatticeField(self.spec, self.apply_values(field.values))

    def adjoint(self) -> "Operator":
        raise NotImplementedError


def _lattice_steps(m) -> np.ndarray:
    """The integer step vector ``m`` of a translation by ``m h``, decided by
    dtype: float steps raise TypeError even when whole, and are never rounded.
    A vector whose shape is not ``(3,)`` raises ValueError."""
    m = np.asarray(m)
    if not np.issubdtype(m.dtype, np.integer):
        raise TypeError(f"lattice steps must be integers, got {m.dtype} {m}")
    if m.shape != (3,):
        raise ValueError(f"lattice steps must have shape (3,), got shape {m.shape}")
    return m.astype(int)


def _lattice_axis(axis: int, name: str) -> int:
    """The axis index ``axis`` of the factory ``name``: 0, 1 or 2, else ValueError."""
    if axis not in (0, 1, 2):
        raise ValueError(f"{name} axis must be 0, 1 or 2, got {axis}")
    return int(axis)


class Shift(Operator):
    """Exact lattice translation ``psi -> psi(. - m h)`` by the integer
    steps ``m``: ``out[dst] = vals[src]`` on ``_overlap``'s blocks, else zero."""

    def __init__(self, spec: LatticeSpec, steps):
        self.spec = spec
        self.steps = _lattice_steps(steps)
        self.src, self.dst = _overlap(self.steps, (spec.n,) * 3)

    def apply_values(self, vals):
        out = np.zeros_like(vals)
        out[self.dst] = vals[self.src]
        return out

    def adjoint(self):
        return Shift(self.spec, -self.steps)


class Multiplier(Shift):
    """Left multiplication by a quaternion-valued symbol, then a shift by the
    integer steps ``m`` (none by default: a pointwise multiplier).

    ``symbol`` is broadcast to the block ``src`` (the whole grid for ``m =
    0``): ``out[dst] = symbol vals[src]``, zero elsewhere.  The adjoint
    moves back by the conjugate symbol.
    """

    def __init__(self, spec: LatticeSpec, symbol: np.ndarray, steps=(0, 0, 0)):
        super().__init__(spec, steps)
        block = tuple(s.stop - s.start for s in self.src)
        self.symbol = np.broadcast_to(np.asarray(symbol, dtype=float), block + (4,))

    def apply_values(self, vals):
        out = np.zeros_like(vals)
        out[self.dst] = quat.qmul(self.symbol, vals[self.src])
        return out

    def adjoint(self):
        return Multiplier(self.spec, quat.qconj(self.symbol), -self.steps)


class Diff(Operator):
    """Central difference along one axis; exactly antisymmetric."""

    def __init__(self, spec: LatticeSpec, axis: int):
        self.spec = spec
        self.axis = _lattice_axis(axis, "Diff")
        e = _AXES[self.axis]
        self.ahead, self.behind = Shift(spec, -e), Shift(spec, e)

    def apply_values(self, vals):
        out = self.ahead.apply_values(vals) - self.behind.apply_values(vals)
        out /= 2.0 * self.spec.step
        return out

    def adjoint(self):
        return Scaled(-1.0, self)


def _hop_links(spec: LatticeSpec, axis: int) -> np.ndarray:
    """Transport quaternions ``plus[x]`` from ``x+h`` to ``x`` along an axis.

    Axis hops never meet the origin on a cell-centered grid, and the links
    intertwine the radial complex structure exactly: ``j(x) plus[x] =
    plus[x] j(x+h)`` pointwise.  Only ``_slice_gauge`` (cached) reads them.
    """
    step = spec.step * _AXES[axis]
    return geometry.transport(-step, spec.points() + step)


# ---------------------------------------------------------------------------
# the slice frame: U(1) links, complex matrices (rows and columns are sites
# in C order), field conversion

@functools.lru_cache(maxsize=8)
def _slice_gauge(spec: LatticeSpec):
    """The frame ``q = slice_frame(points, e3)`` and the U(1) links.

    Per axis the link of the hop from ``x+h`` to ``x`` is ``z(x) = q(x)*
    plus(x) q(x+h)``, held as a complex ``(n, n, n)`` array (zero where
    ``x+h`` lies beyond the wall); the hop back carries ``conj(z(x))``.
    Computed once per lattice and returned read-only.
    """
    q = geometry.slice_frame(spec.points(), quat.E3)
    q.setflags(write=False)
    links = []
    for axis in range(3):
        plus = _hop_links(spec, axis)
        here, there = _overlap(_AXES[axis], q.shape)
        w = quat.qmul(quat.qconj(q[here]), quat.qmul(plus[here], q[there]))
        z = np.zeros((spec.n,) * 3, dtype=complex)
        z[here] = w[..., 0] + 1j * w[..., 3]
        z.setflags(write=False)
        links.append(z)
    return q, tuple(links)


@functools.lru_cache(maxsize=8)
def _site_table(spec: LatticeSpec):
    """The radial unit ``dirq(x)`` (the symbol of ``jop``, held plane by
    plane), the contiguous planes ``x_k`` and ``|x|`` of every site, once
    per lattice and read-only: with ``dirq``'s vector part ``x/|x|``, the
    half of ``geometry.transport``'s terms that ``twisted_shift`` does not
    recompute for each shift."""
    pts = spec.points()
    j = np.moveaxis(np.ascontiguousarray(np.moveaxis(geometry.dirq(pts), -1, 0)), 0, -1)
    xs = tuple(np.ascontiguousarray(pts[..., k]) for k in range(3))
    nx = geometry._plane_norm(xs)
    for arr in (j, *xs, nx):
        arr.setflags(write=False)
    return j, xs, nx


def _frame_matrix(spec: LatticeSpec, diag: complex, hops: dict) -> sparse.csr_matrix:
    """Complex ``n^3 x n^3`` matrix: ``diag`` on the diagonal and, for each
    ``axis: (up, down)`` in ``hops``, ``up z(x)`` at ``(x, x+h)`` and
    ``down conj(z(x))`` at ``(x+h, x)``.  Its arrays hold exactly its
    nonzeros: a zero diagonal is not passed, and the wall links are dropped."""
    n = spec.n
    size = n**3
    links = _slice_gauge(spec)[1]
    diagonals, offsets = ([np.full(size, diag)], [0]) if diag else ([], [])
    for axis, (up, down) in hops.items():
        stride = n ** (2 - axis)
        z = links[axis].ravel()[:size - stride]
        diagonals += [up * z, down * z.conj()]
        offsets += [stride, -stride]
    mat = sparse.diags(diagonals, offsets, shape=(size, size), format="csr", dtype=complex)
    # the conversion drops the zero wall links but returns views of its
    # full-length buffers: copied, the arrays are exactly nnz long
    mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
    return mat


def _to_cols(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The ``(n^3, 2)`` complex columns ``(f1, f2)`` of ``vals = q (f1 + f2 e1)``.

    The quaternion components of ``q* vals`` are ``(Re f1, Re f2, Im f2,
    Im f1)``.
    """
    f = quat.qmul(quat.qconj(q), vals).reshape(-1, 4)
    cols = np.empty((f.shape[0], 2), dtype=complex)
    cols.real = f[:, :2]
    cols.imag = f[:, 3:1:-1]
    return cols


def _from_cols(q: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The quaternion values ``q (f1 + f2 e1)`` of the ``(n^3, k)`` complex
    columns ``cols``, k = 1 or 2; a single column is ``f1``, with ``f2`` zero."""
    k = cols.shape[1]
    g = np.zeros((cols.shape[0], 4))
    g[:, :k] = cols.real
    g[:, 3:3 - k:-1] = cols.imag
    return quat.qmul(q, g.reshape(q.shape))


class _FrameField(LatticeField):
    """A field held as its ``(n^3, k)`` slice-frame columns ``cols``, made
    read-only; its read-only quaternion values ``q (f1 + f2 e1)`` are formed
    only when first read, so a field passed on in the frame is never converted."""

    def __init__(self, spec: LatticeSpec, cols: np.ndarray):
        cols.setflags(write=False)
        self.spec = spec
        self.cols = cols
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = _from_cols(_slice_gauge(self.spec)[0], self.cols)
            vals.setflags(write=False)
            self._values = vals
        return self._values


def _frame_cols(psi: LatticeField) -> np.ndarray:
    """The complex slice-frame columns of ``psi``: a ``_FrameField``'s own,
    else the ``(n^3, 2)`` columns ``(f1, f2)`` of its values."""
    if isinstance(psi, _FrameField):
        return psi.cols
    return _to_cols(_slice_gauge(psi.spec)[0], psi.values)


class FrameOp(Operator):
    """A ``J``-linear lattice operator held as its slice-frame matrix.

    ``matrix`` is the complex ``n^3 x n^3`` matrix ``Q* A Q`` in the gauge
    ``q = slice_frame(x, e3)``; it acts on both columns ``(f1, f2)`` of a
    field alike.  ``adjoint_sign`` is +1 for a hermitian and -1 for an
    anti-hermitian operator.
    """

    def __init__(self, spec: LatticeSpec, matrix: sparse.csr_matrix, adjoint_sign: float):
        self.spec = spec
        self.matrix = matrix
        self.adjoint_sign = adjoint_sign

    def apply_values(self, vals):
        q = _slice_gauge(self.spec)[0]
        return _from_cols(q, self.matrix @ _to_cols(q, vals))

    def adjoint(self):
        return self if self.adjoint_sign > 0 else Scaled(-1.0, self)


class Scaled(Operator):
    def __init__(self, coeff: float, op: Operator):
        self.coeff = float(coeff)
        self.op = op
        self.spec = op.spec

    def apply_values(self, vals):
        return self.coeff * self.op.apply_values(vals)


def _factors(ops) -> tuple:
    """A composite's factors as a tuple; ValueError unless all share a lattice."""
    ops = tuple(ops)
    if any(op.spec != ops[0].spec for op in ops[1:]):
        raise ValueError("composite factors live on different lattices")
    return ops


class Compose(Operator):
    """Composite; factors apply right-to-left."""

    def __init__(self, ops):
        self.ops = _factors(ops)
        self.spec = self.ops[0].spec

    def apply_values(self, vals):
        for op in reversed(self.ops):
            vals = op.apply_values(vals)
        return vals


def net_shift(op: Operator):
    """Total grid displacement of a composite, or None if not shift-like."""
    if isinstance(op, Shift):
        return op.steps.copy()
    if isinstance(op, Compose):
        total = np.zeros(3, dtype=int)
        for f in op.ops:
            s = net_shift(f)
            if s is None:
                return None
            total += s
        return total
    return None


def is_pointwise(op: Operator) -> bool:
    """True if the composite is structurally a pointwise multiplier."""
    s = net_shift(op)
    return s is not None and not s.any()


def symbol_of(op: Operator) -> np.ndarray:
    """Extract the pointwise symbol by applying to the constant unit field.

    Shifts in the composite clip a boundary band (zero fill), so the symbol
    is only meaningful on the interior; compare it under ``interior_mask``.
    """
    return op.apply_values(hilbert.constant(op.spec, quat.E0).values)


def interior_mask(spec: LatticeSpec, cells: int) -> np.ndarray:
    """Boolean site mask excluding a band of ``cells`` at every wall."""
    if 2 * cells >= spec.n:
        raise ValueError("interior_mask band leaves no sites")
    mask = np.zeros((spec.n,) * 3, dtype=bool)
    core = slice(cells, spec.n - cells)
    mask[core, core, core] = True
    return mask


def defect_clip_cells(ma, mb) -> int:
    """Width of the wall band a closure defect clips (zero fill).

    Applying U(a+b)* U(a) U(b) walks the data through displacements
    0 -> mb -> ma+mb -> 0; a site is unaffected iff the walk stays in the
    box, so the per-axis band is max(|mb|, |ma+mb|).
    """
    ma = np.asarray(ma, dtype=int)
    mb = np.asarray(mb, dtype=int)
    return int(np.maximum(np.abs(mb), np.abs(ma + mb)).max())


# ---------------------------------------------------------------------------
# factories

def position(spec: LatticeSpec, axis: int) -> Multiplier:
    """Position component: multiplication by the real coordinate x_axis."""
    sym = np.zeros((spec.n,) * 3 + (4,))
    sym[..., 0] = spec.points()[..., _lattice_axis(axis, "position")]
    return Multiplier(spec, sym)


def left_unit(spec: LatticeSpec, axis: int) -> Multiplier:
    """Left multiplication by the constant imaginary unit e_axis."""
    return Multiplier(spec, np.eye(4)[_lattice_axis(axis, "left_unit") + 1])


def jop(spec: LatticeSpec) -> Multiplier:
    """The radial complex structure: left multiplication by ``dirq(x)``.

    Unitary and anti-hermitian; squares to minus the identity.
    """
    return Multiplier(spec, _site_table(spec)[0])


def bfield_op(spec: LatticeSpec, axis: int) -> Multiplier:
    """Magnetic field component: multiplication by x_axis / (2 |x|^3)."""
    sym = np.zeros((spec.n,) * 3 + (4,))
    sym[..., 0] = geometry.bfield(spec.points())[..., _lattice_axis(axis, "bfield_op")]
    return Multiplier(spec, sym)


def twisted_shift(spec: LatticeSpec, m) -> Multiplier:
    """Transported translation by the integer steps ``m``: ``(U psi)(x + m h)
    = transport(m h; x) psi(x)``, zero where ``x - m h`` is off the lattice.

    The domain is decided in integers by ``_steps_admissible`` (DomainError
    where a site's segment meets the origin).  The symbol is
    ``geometry.transport``'s formula, bit for bit, on the lattice's cached
    site planes, computed only on the sites that the shift keeps.
    """
    m = _lattice_steps(m)
    if not _steps_admissible(spec, m):
        raise geometry.DomainError(f"a segment of the shift by steps {m} passes through the origin")
    src = _overlap(m, (spec.n,) * 3)[0]
    j, xs, nx = _site_table(spec)
    xhat = tuple(j[..., k][src] for k in range(1, 4))
    symbol = geometry._transport_value(
        xhat, nx[src], *geometry._far_end(tuple(x[src] for x in xs), m * spec.step))
    return Multiplier(spec, symbol, m)


def compose_defect(spec: LatticeSpec, ma, mb) -> Compose:
    """The multiplier closing ``twisted_shift(ma) twisted_shift(mb)``.

    Returned as the raw composite ``twisted_shift(ma+mb)* twisted_shift(ma)
    twisted_shift(mb)``; structurally pointwise (net displacement zero), with
    symbol ``geometry.multiplier(ma h, mb h, x)``.
    """
    ma, mb = _lattice_steps(ma), _lattice_steps(mb)
    return Compose((twisted_shift(spec, ma + mb).adjoint(),
                    twisted_shift(spec, ma),
                    twisted_shift(spec, mb)))


def covderiv(spec: LatticeSpec, axis: int) -> FrameOp:
    """Covariant derivative along one axis.

    Central difference of parallel-transported neighbors,

        (grad_i psi)(x) = [plus(x) psi(x+h) - minus(x) psi(x-h)] / 2h.

    Expanding the links recovers ``d_i + e . (e_i cross x)/(2 |x|^2)`` to
    second order, and the link form makes the structure exact on the
    lattice: anti-hermitian, commuting with ``jop``, and ``[hamiltonian,
    position_i] = -(1/m) covderiv_i`` as an operator identity (a bare
    multiplier connection would leave O(h^2) mismatches in all three).  In
    the slice frame the link ``plus`` is the phase ``z`` and ``minus(x)``
    is ``conj(z(x-h))``.
    """
    axis = _lattice_axis(axis, "covderiv")
    s = 0.5 / spec.step
    return FrameOp(spec, _frame_matrix(spec, 0.0, {axis: (s, -s)}), -1.0)


def hamiltonian(spec: LatticeSpec, mass: float) -> FrameOp:
    """Free covariant Hamiltonian ``-(1/2m) grad^2`` in the monopole background.

    The transported compact Laplacian: per axis the 3-point second
    difference with parallel-transported neighbors,
    ``[plus(x) psi(x+h) - 2 psi(x) + minus(x) psi(x-h)] / h^2``.  Unit
    links make it exactly hermitian; the intertwining property of the
    links makes ``[H, jop] = 0`` exact; and ``[H, position_i] = -(1/m)
    covderiv_i`` holds as a lattice operator identity.  Its slice-frame
    matrix has 7 nonzeros per row away from the walls.
    """
    if not 0.0 < mass < np.inf:
        raise ValueError("mass must be positive and finite")
    coeff = -0.5 / (mass * spec.step**2)  # the hop weight; -6 times it on site
    hops = {ax: (coeff, coeff) for ax in range(3)}
    return FrameOp(spec, _frame_matrix(spec, -6.0 * coeff, hops), 1.0)


# ---------------------------------------------------------------------------
# analytic-representation helpers (pointwise finite differences on callables)

def partial_fn(fn, axis: int, h: float):
    """Central-difference partial derivative of an analytic field."""
    e = _AXES[axis]

    def d(x):
        x = np.asarray(x, dtype=float)
        return (fn(x + h * e) - fn(x - h * e)) / (2.0 * h)

    return d


def connection_value(u, x) -> np.ndarray:
    """Connection multiplier value ``e . (u cross x) / (2 |x|^2)``."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return quat.from_vector(np.cross(u, x) / (2.0 * r2)[..., None])


def covderiv_fn(fn, u, h: float):
    """Covariant derivative of an analytic field, step-h stencil."""
    u = np.asarray(u, dtype=float)
    parts = [(u[ax], partial_fn(fn, ax, h)) for ax in range(3) if u[ax] != 0.0]

    def d(x):
        x = np.asarray(x, dtype=float)
        out = quat.qmul(connection_value(u, x), fn(x))
        for c, p in parts:
            out = out + c * p(x)
        return out

    return d


def rotgen_fn(fn, axis: int, h: float):
    """Rotation generator applied to an analytic field, step-h stencil."""
    j = (axis + 1) % 3
    k = (axis + 2) % 3
    dj = partial_fn(fn, j, h)
    dk = partial_fn(fn, k, h)
    e_ax = np.eye(4)[axis + 1]

    def m(x):
        x = np.asarray(x, dtype=float)
        orb = x[..., j, None] * dk(x) - x[..., k, None] * dj(x)
        return orb - 0.5 * quat.qmul(e_ax, fn(x))

    return m


def rotation_exp_fn(fn, axis: int, theta: float):
    """Finite rotation ``exp(theta * rotgen(axis))`` of an analytic field.

    Factored exactly: rotate the argument, left-multiply by the half-angle
    spin phase ``qexp(-theta/2 e_axis)``.  At ``theta = 2 pi`` the orbital
    factor is the identity and the spin factor is ``-e0``: one full turn
    maps ``psi`` to ``-psi``.
    """
    c, s = np.cos(theta), np.sin(theta)
    j = (axis + 1) % 3
    k = (axis + 2) % 3
    rot = np.eye(3)
    rot[j, j] = rot[k, k] = c
    rot[j, k], rot[k, j] = -s, s
    phase = quat.qexp(-0.5 * theta * np.eye(4)[axis + 1])

    def r(x):
        x = np.asarray(x, dtype=float)
        return quat.qmul(phase, fn(x @ rot.T))

    return r


def commutator_check(i: int, j: int, fn, points, h: float) -> np.ndarray:
    """Compare ``[covderiv_i, covderiv_j]`` against the curvature multiplier.

    Both derivatives are nested step-h central differences on the analytic
    field ``fn``; the target is ``kappa_ij(x) * dirq(x) * fn(x)``.  Returns the
    per-point deviations, O(h^2) on smooth fields away from the origin.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    di_dj = covderiv_fn(covderiv_fn(fn, _AXES[j], h), _AXES[i], h)
    dj_di = covderiv_fn(covderiv_fn(fn, _AXES[i], h), _AXES[j], h)
    comm = di_dj(points) - dj_di(points)
    kap = geometry.curvature(points).kappa[..., i, j]
    target = kap[..., None] * quat.qmul(geometry.dirq(points), fn(points))
    return quat.qnorm(comm - target)


# ---------------------------------------------------------------------------
# lattice domain

def _steps_admissible(spec: LatticeSpec, m) -> bool:
    """True if the shift ``m * step`` keeps every site's segment off the origin.

    Site coordinates are odd multiples of h/2, so the segment from ``x``
    to ``x + m h`` meets the origin iff ``x = -k p h/2`` for an odd ``0 < k
    < 2 gcd(|m|)``, where ``p = m / gcd(|m|)``.  That needs every component
    of ``m`` nonzero and every ``p_i`` odd; the site with ``k = 1`` then
    exists iff ``max |p_i| <= n - 1`` (e.g. steps (2,2,2) from the site at
    -(1,1,1)h/2).  Decided in integers, with no float margin.  The
    samplers draw only admissible shifts with it, and ``twisted_shift``
    decides its domain with it.
    """
    m = np.asarray(m, dtype=int)
    if not m.all():
        return True
    p = m // np.gcd.reduce(np.abs(m))
    return not (np.all(p % 2 == 1) and np.abs(p).max() <= spec.n - 1)
