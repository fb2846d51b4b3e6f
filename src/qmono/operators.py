"""Operator algebra on lattice fields.

Operators act on the left of quaternion-valued fields; a composite
applies its factors right-to-left: ``Compose((A, B))(psi) = A(B(psi))``,
written ``A B`` below.  The kinds are

* exact lattice shifts (``Shift``; Dirichlet zero fill off ``_kept``, the
  block of sites whose image stays on the grid) and left multipliers
  followed by a shift (``Multiplier``, a ``Shift``): pointwise with no
  steps (position, the radial complex structure ``jop``, the axis units,
  field components) and twisted (``twisted_shift``: a transport
  multiplier, then a shift, in one pass),
* frame operators (``FrameOp``: ``covderiv`` and ``hamiltonian``, which hop
  between neighbors through unit transport links).  They commute with
  ``jop``, so each is one complex linear map in the gauge ``q(x) =
  slice_frame(x, e3)``, where every link is a U(1) phase; ``dynamics``
  evolves and observes with the same maps.  ``hamiltonian``'s is a
  ``CSRMatrix``: scipy's CSR arrays, built and multiplied by scipy's
  compiled kernels (``scipy.sparse._sparsetools``, loaded with this module
  by ``_scipy_compiled``), with no ``scipy.sparse`` import.
  ``covderiv``'s is a ``LinkStencil``, which applies the cached links
  themselves with the same compiled kernels' arithmetic, bit for bit as
  its CSR matrix would on finite operands,
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
* Every kind implements one ``_apply(field) -> field``, run by
  ``Operator.__call__``.  ``Shift`` and ``Multiplier`` read only a field's
  ``block`` (``hilbert.LatticeField``) and return a field that holds only
  its moved block: a view of the input's for ``Shift``, a new block for
  ``Multiplier``.  ``Compose`` chains the fields; ``Diff``, ``Scaled``
  and ``FrameOp`` read whole ``values`` and return whole fields.  The
  values match a whole-grid apply bit for bit, but for the sign of zero:
  +0.0 off the support where the whole grid's product may give -0.0.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from . import geometry, hilbert, quat
from .hilbert import LatticeField, LatticeSpec

_AXES = np.eye(3, dtype=int)  # the unit steps, also the axis unit vectors


def _kept(steps, shape) -> tuple:
    """The block of sites ``src`` of a grid of ``shape`` that a shift by
    ``steps`` keeps: those whose image ``src + steps`` lies in the grid."""
    whole = tuple(slice(0, size) for size in shape)
    return hilbert.intersect_blocks(whole, hilbert.translate_block(whole, -steps))


class Operator:
    """Base class: an immutable description applied as a pure function.

    Each kind implements one method, ``_apply``, which maps a field on
    its lattice to the result's field.  ``__call__`` is the one entry
    point; an operator that holds others calls their ``_apply``.
    """

    spec: LatticeSpec

    def _apply(self, field: LatticeField) -> LatticeField:
        raise NotImplementedError

    def __call__(self, field: LatticeField) -> LatticeField:
        if field.spec != self.spec:
            raise ValueError("operator and field live on different lattices")
        return self._apply(field)

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
    steps ``m``: the kept block ``src`` (``_kept``) cut to a field's
    support moves to ``dst = src + m``, the result's support, whose block
    is a view of the field's block on ``src``; zero elsewhere."""

    def __init__(self, spec: LatticeSpec, steps):
        self.spec = spec
        self.steps = _lattice_steps(steps)
        self.src = _kept(self.steps, (spec.n,) * 3)

    def _blocks(self, support):
        """``src`` cut to ``support``; ``part``, its place within the uncut
        ``src``; and ``dst``, where it moves to."""
        src = hilbert.intersect_blocks(self.src, support)
        return src, hilbert.within(src, self.src), hilbert.translate_block(src, self.steps)

    def _apply(self, field):
        src, _, dst = self._blocks(field.support)
        block = field.block[hilbert.within(src, field.support)]
        return LatticeField.of_block(self.spec, block, dst)

    def adjoint(self):
        return Shift(self.spec, -self.steps)


class Multiplier(Shift):
    """Left multiplication by a quaternion-valued symbol, then a shift by the
    integer steps ``m`` (none by default: a pointwise multiplier).

    ``symbol`` is broadcast to the block ``src`` (the whole grid for ``m =
    0``): the result holds only its block ``symbol psi[src]`` on ``dst``; a
    field's support cuts ``src`` as for ``Shift`` and the symbol to the
    same sites, ``_blocks``' ``part``.  The adjoint moves back by the
    conjugate symbol.
    """

    def __init__(self, spec: LatticeSpec, symbol: np.ndarray, steps=(0, 0, 0)):
        super().__init__(spec, steps)
        block = tuple(s.stop - s.start for s in self.src)
        self.symbol = np.broadcast_to(np.asarray(symbol, dtype=float), block + (4,))

    def _apply(self, field):
        src, part, dst = self._blocks(field.support)
        block = quat.qmul(self.symbol[part], field.block[hilbert.within(src, field.support)])
        return LatticeField.of_block(self.spec, block, dst)

    def adjoint(self):
        return Multiplier(self.spec, quat.qconj(self.symbol), -self.steps)


class Diff(Operator):
    """Central difference along one axis; exactly antisymmetric."""

    def __init__(self, spec: LatticeSpec, axis: int):
        self.spec = spec
        self.axis = _lattice_axis(axis, "Diff")
        e = _AXES[self.axis]
        self.ahead, self.behind = Shift(spec, -e), Shift(spec, e)

    def _apply(self, field):
        out = self.ahead._apply(field).values - self.behind._apply(field).values
        out /= 2.0 * self.spec.step
        return LatticeField(self.spec, out)

    def adjoint(self):
        return Scaled(-1.0, self)


def _hop_links(spec: LatticeSpec, axis: int):
    """Transport quaternions ``plus[x]`` from ``x+h`` to ``x`` along an axis,
    as the function ``plus(rows)`` that evaluates them on the sites of a
    block of rows (a slice of the first axis).

    Axis hops never meet the origin on a cell-centered grid: a site's other
    two coordinates are odd multiples of h/2, never zero (in integers, as
    ``_steps_admissible`` of a unit step says).  So the links skip
    ``geometry.transport``'s float domain test and take its formula, bit
    for bit, from ``geometry._far_end`` and ``_transport_value``.  They
    intertwine the radial complex structure exactly: ``j(x) plus[x] =
    plus[x] j(x+h)`` pointwise.  Only ``_slice_gauge`` (cached) reads them,
    one slab of rows at a time.
    """
    step = spec.step * _AXES[axis]
    pts = spec.points()

    def plus(rows):
        xs = tuple(np.ascontiguousarray(np.moveaxis(pts[rows] + step, -1, 0)))
        ys, ny, v = geometry._far_end(xs, -step)
        nx = geometry._plane_norm(xs)
        return geometry._transport_value(tuple(xk / nx for xk in xs), nx, ys, ny, v)

    return plus


# ---------------------------------------------------------------------------
# scipy's compiled kernels, without the Python layers of their packages

def _scipy_compiled(pkg: str, mod: str):
    """scipy's compiled extension module ``scipy.<pkg>.<mod>``, loaded as one
    file without running ``scipy.<pkg>``'s ``__init__`` (``scipy.sparse``
    and ``scipy.linalg`` import far more than the kernels used here).

    A module already in ``sys.modules`` is returned as it is.  Otherwise the
    file ``scipy/<pkg>/<mod><suffix>``, for a suffix of
    ``importlib.machinery.EXTENSION_SUFFIXES``, is loaded under the full
    name and registered in ``sys.modules``, so a later ``import
    scipy.<pkg>`` reuses the same module and functions.  One wart: that
    package then lacks the module as an attribute (``scipy.sparse.
    _sparsetools`` raises AttributeError); no scipy module outside its tests
    reads it that way.  A missing file raises ImportError.
    """
    name = f"scipy.{pkg}.{mod}"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], pkg)
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(folder, extensions).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


# loaded with this module: the first product may run on a worker thread
_SPARSETOOLS = _scipy_compiled("sparse", "_sparsetools")


class CSRMatrix:
    """A sparse matrix in scipy's CSR layout: ``data``, ``indices`` and
    ``indptr`` as ``scipy.sparse.csr_matrix`` holds them, ``shape`` and
    ``nnz``.  ``scipy.sparse.csr_matrix((m.data, m.indices, m.indptr),
    shape=m.shape)`` wraps one without a copy.

    ``m @ x`` follows scipy's dispatch for an ndarray ``x`` of shape
    ``(N,)`` or ``(N, k)``, so both run the same kernels on the same
    arrays: one vector or one column goes to ``csr_matvec`` (a column comes
    back as ``(N, 1)``), ``k > 1`` columns to ``csr_matvecs``, each into a
    zero-filled result of the common dtype.  A multiple of ``m`` is built
    from its scaled ``data`` on the same index arrays.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)
        self.nnz = int(indptr[-1])

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        if not (isinstance(other, np.ndarray) and other.ndim in (1, 2) and other.shape[0] == cols):
            raise ValueError(f"matmul: a {self.shape} matrix cannot take {np.shape(other)}")
        dtype = np.result_type(self.data.dtype, other.dtype)
        if other.ndim == 1 or other.shape[1] == 1:
            out = np.zeros(rows, dtype=dtype)
            _SPARSETOOLS.csr_matvec(rows, cols, self.indptr, self.indices, self.data,
                                    other.ravel(), out)
            return out if other.ndim == 1 else out.reshape(rows, 1)
        out = np.zeros((rows, other.shape[1]), dtype=dtype)
        _SPARSETOOLS.csr_matvecs(rows, cols, other.shape[1], self.indptr, self.indices,
                                 self.data, other.ravel(), out.ravel())
        return out


# ---------------------------------------------------------------------------
# the slice frame: U(1) links, complex matrices and link stencils (rows and
# columns are sites in C order), field conversion

def _frame_link(z: np.ndarray, q: np.ndarray, plus: np.ndarray, axis: int, rows: slice):
    """Write the U(1) link ``z(x) = q(x)* plus(x) q(x+h)`` of one axis into
    ``z`` on the block of rows ``rows`` (a slice of the first axis), from
    ``plus`` on those rows; ``q`` must hold the sites ``x+h`` already.
    Sites whose ``x+h`` lies beyond the wall are left as they are (zero)."""
    e = _AXES[axis]
    here = (rows,) + _kept(e, z.shape)[1:]
    there = hilbert.translate_block(here, e)
    w = quat.qmul(quat.qconj(q[here]), quat.qmul(plus[(slice(None),) + here[1:]], q[there]))
    z[here] = w[..., 0] + 1j * w[..., 3]


@functools.lru_cache(maxsize=8)
def _slice_gauge(spec: LatticeSpec):
    """The frame ``q = slice_frame(points, e3)`` and the U(1) links.

    Per axis the link of the hop from ``x+h`` to ``x`` is ``z(x) = q(x)*
    plus(x) q(x+h)``, held as a complex ``(n, n, n)`` array (zero where
    ``x+h`` lies beyond the wall); the hop back carries ``conj(z(x))``.
    Computed once per lattice, on the calling thread, and returned read-only.

    Built in slabs of rows of about ``quat.QMUL_BLOCK`` sites, each written
    straight into the final ``q`` and link arrays, so that no temporary
    spans the grid: a slab's frame, then its links along axes 1 and 2, then
    the links along axis 0 of the rows up to its last, whose hop reaches
    into it.  Every site's value is the same arithmetic as on the whole
    grid, bit for bit.  A call that raises caches nothing.
    """
    n = spec.n
    pts = spec.points()
    hops = [_hop_links(spec, axis) for axis in range(3)]
    q = np.empty((n, n, n, 4))
    links = tuple(np.zeros((n, n, n), dtype=complex) for _ in range(3))
    size = max(1, quat.QMUL_BLOCK // n**2)
    for start in range(0, n, size):
        slab = slice(start, min(start + size, n))
        q[slab] = geometry.slice_frame(pts[slab], quat.E3)
        for axis in (1, 2):
            _frame_link(links[axis], q, hops[axis](slab), axis, slab)
        back = slice(max(start - 1, 0), slab.stop - 1)
        _frame_link(links[0], q, hops[0](back), 0, back)
    for arr in (q, *links):
        arr.setflags(write=False)
    return q, links


@functools.lru_cache(maxsize=8)
def _site_table(spec: LatticeSpec):
    """The radial unit ``dirq(x)`` (the symbol of ``jop``, held plane by
    plane) and ``|x|`` of every site, once per lattice and read-only: with
    ``dirq``'s vector part ``x/|x|``, the terms of ``geometry.transport``
    at ``x`` that ``twisted_shift`` does not recompute for each shift."""
    pts = spec.points()
    j = np.moveaxis(np.ascontiguousarray(np.moveaxis(geometry.dirq(pts), -1, 0)), 0, -1)
    nx = geometry._plane_norm(np.moveaxis(pts, -1, 0))
    for arr in (j, nx):
        arr.setflags(write=False)
    return j, nx


def _frame_matrix(spec: LatticeSpec, diag: complex, hop: complex) -> CSRMatrix:
    """Complex ``n^3 x n^3`` matrix: ``diag`` on the diagonal and, along
    every axis, ``hop z(x)`` at ``(x, x+h)`` and ``hop conj(z(x))`` at
    ``(x+h, x)``.  Its arrays hold exactly its nonzeros: the wall links are
    dropped.

    Built as ``scipy.sparse.diags(..., format="csr")`` builds it: the
    diagonals in ``diags_array``'s DIA layout (diagonal ``d`` from column
    ``max(0, offset_d)`` of row ``d``), each computed straight into its row
    (``hop * z``, ``hop * conj(z)``), then ``dia_tocsr`` in the order of
    ascending offsets, as ``dia_matrix.tocsr`` calls it."""
    n = spec.n
    size = n**3
    links = _slice_gauge(spec)[1]
    offsets = [0] + [sign * n ** (2 - axis) for axis in range(3) for sign in (1, -1)]
    dia = np.zeros((len(offsets), size), dtype=complex)
    rows = iter(dia)
    next(rows)[:] = diag
    for axis in range(3):
        stride = n ** (2 - axis)
        z = links[axis].ravel()[:size - stride]
        np.multiply(hop, z, out=next(rows)[stride:])
        below = np.conjugate(z, out=next(rows)[:size - stride])
        np.multiply(hop, below, out=below)
    # dia_tocsr writes each nonzero of `dia` that lies inside the matrix and
    # nothing else (it drops the zero wall links); every nonzero here does,
    # so arrays of exactly that count are filled to the end, never past it.
    # int32 indices, as scipy picks below 2^31 nonzeros (7 n^3 at most here)
    nnz = np.count_nonzero(dia)
    data, indices = np.empty(nnz, dtype=complex), np.empty(nnz, dtype=np.int32)
    indptr = np.empty(size + 1, dtype=np.int32)
    offsets = np.array(offsets, dtype=np.int32)
    _SPARSETOOLS.dia_tocsr(size, size, *dia.shape, offsets, dia,
                           np.argsort(offsets).astype(np.int32), data, indices, indptr)
    return CSRMatrix(data, indices, indptr, (size, size))


class LinkStencil:
    """The slice-frame product of a central difference through U(1) links,
    ``(G f)(x) = (-s conj z(x-h)) f(x-h) + (s z(x)) f(x+h)`` along ``axis``,
    from the ``(n, n, n)`` links ``z`` of ``_slice_gauge``, with no matrix
    assembled.

    ``g @ x`` takes an ``(N,)`` or ``(N, k)`` operand of the ``N = n^3``
    sites in C order, as ``CSRMatrix`` does (another shape is a
    ValueError), and returns a fresh complex array of its shape.  It is
    evaluated in slabs of rows of about ``quat.QMUL_BLOCK`` sites.  Per
    slab it forms the entries of the hop back, ``-s conj(z(x-h))``, and of
    the hop up, ``s z(x)``, as ``_frame_matrix`` forms a CSR matrix's, and
    adds each times its neighbor's values to the rows with
    ``scipy.sparse._sparsetools.dia_matvec`` (``dia_matvecs`` for k > 1
    columns), one diagonal at a time, so that each row is summed from +0.0
    with the complex products of scipy's CSR kernels, hop back first.  So
    for finite operands the product equals that of ``G``'s CSR matrix bit
    for bit.  The wall link ``z = 0`` enters along the flattened sites as
    one zero entry per row at a wall, whose product is a zero that the sum
    drops; only a non-finite value of the site it reaches would make that
    product NaN, where the CSR matrix stores no entry.
    """

    _OFFSET = np.zeros(1, dtype=np.int32)  # each call's one diagonal: the main one

    def __init__(self, links: np.ndarray, axis: int, s: float):
        self.links, self.s = links, s
        self.stride = links.shape[0] ** (2 - axis)  # of a hop, in flattened sites
        self.shape = (links.size, links.size)

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        size = self.shape[1]
        if not (isinstance(other, np.ndarray) and other.ndim in (1, 2) and other.shape[0] == size):
            raise ValueError(f"matmul: a {self.shape} stencil cannot take {np.shape(other)}")
        x = np.ascontiguousarray(other, dtype=complex).reshape(size, -1)
        out = np.zeros(x.shape, dtype=complex)
        z, stride = self.links.ravel(), self.stride
        n = self.links.shape[0]
        rows = max(1, quat.QMUL_BLOCK // n**2) * n**2
        entries = np.empty(rows, dtype=complex)
        for lo in range(0, size, rows):
            hi = min(lo + rows, size)
            # the slab's rows [start, stop) that have each hop
            back, up = (max(lo, stride), hi), (lo, min(hi, size - stride))
            if back[0] < back[1]:
                d = np.conjugate(z[back[0] - stride:back[1] - stride], out=entries[:back[1] - back[0]])
                self._add(np.multiply(-self.s, d, out=d), x, out, back, -stride)
            if up[0] < up[1]:
                d = np.multiply(self.s, z[up[0]:up[1]], out=entries[:up[1] - up[0]])
                self._add(d, x, out, up, stride)
        return out.reshape(np.shape(other))

    def _add(self, d, x, out, rows, shift):
        """``out[r] += d[r - start] x[r + shift]`` for the rows ``r`` in
        ``[start, stop)``: a one-diagonal DIA product on those rows."""
        start, stop = rows
        m = stop - start
        src, dst = x[start + shift:stop + shift], out[start:stop]
        if x.shape[1] == 1:
            _SPARSETOOLS.dia_matvec(m, m, 1, m, self._OFFSET, d, src.ravel(), dst.ravel())
        else:
            _SPARSETOOLS.dia_matvecs(m, m, 1, m, self._OFFSET, d, x.shape[1], src, dst)


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

    @functools.cached_property
    def values(self) -> np.ndarray:
        vals = _from_cols(_slice_gauge(self.spec)[0], self.cols)
        vals.setflags(write=False)
        return vals


def _frame_cols(psi: LatticeField) -> np.ndarray:
    """The complex slice-frame columns of ``psi``: a ``_FrameField``'s own,
    else the ``(n^3, 2)`` columns ``(f1, f2)`` of its values."""
    if isinstance(psi, _FrameField):
        return psi.cols
    return _to_cols(_slice_gauge(psi.spec)[0], psi.values)


class FrameOp(Operator):
    """A ``J``-linear lattice operator held as its slice-frame product.

    ``matrix`` applies the complex ``n^3 x n^3`` matrix ``Q* A Q`` in the
    gauge ``q = slice_frame(x, e3)`` by ``@``: a ``CSRMatrix`` for
    ``hamiltonian`` (which scipy's ``csr_matrix`` wraps without a copy),
    the ``LinkStencil`` of the links for ``covderiv``.  It acts on both
    columns ``(f1, f2)`` of a field alike.  ``adjoint_sign`` is +1 for a
    hermitian and -1 for an anti-hermitian operator.
    """

    def __init__(self, spec: LatticeSpec, matrix, adjoint_sign: float):
        self.spec = spec
        self.matrix = matrix
        self.adjoint_sign = adjoint_sign

    def _apply(self, field):
        q = _slice_gauge(self.spec)[0]
        return LatticeField(self.spec, _from_cols(q, self.matrix @ _to_cols(q, field.values)))

    def adjoint(self):
        return self if self.adjoint_sign > 0 else Scaled(-1.0, self)


class Scaled(Operator):
    def __init__(self, coeff: float, op: Operator):
        self.coeff = float(coeff)
        self.op = op
        self.spec = op.spec

    def _apply(self, field):
        return LatticeField(self.spec, self.coeff * self.op._apply(field).values)


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

    def _apply(self, field):
        for op in reversed(self.ops):
            field = op._apply(field)
        return field


def is_pointwise(op: Operator) -> bool:
    """True if ``op`` is a ``Shift``, or a ``Compose`` of ``Shift``s, whose
    steps sum to zero: structurally a pointwise multiplier."""
    factors = op.ops if isinstance(op, Compose) else (op,)
    return all(isinstance(f, Shift) for f in factors) and not sum(f.steps for f in factors).any()


def symbol_of(op: Operator) -> np.ndarray:
    """The pointwise symbol: ``op._apply`` of the constant unit field.

    Shifts in the composite clip a boundary band (zero fill), so the symbol
    is only meaningful on the interior; read it on ``interior_block``.
    """
    return op._apply(hilbert.constant(op.spec, quat.E0)).values


def interior_block(spec: LatticeSpec, cells: int) -> tuple:
    """The sites off a band of ``cells`` at every wall, as three slices."""
    if 2 * cells >= spec.n:
        raise ValueError("interior_block band leaves no sites")
    return (slice(cells, spec.n - cells),) * 3


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
    ``geometry.transport``'s formula, bit for bit, computed only on the
    sites that the shift keeps.  Their coordinates ``x_k`` are the axis
    values of the kept rows, so the terms of one or two coordinates (``x +
    m h``, the partial sums of ``|x + m h|^2``, each component of ``x cross
    (x + m h)``) are formed on 1-D and 2-D arrays that broadcast; ``x/|x|``
    and ``|x|`` come from the lattice's cached site table.
    """
    m = _lattice_steps(m)
    if not _steps_admissible(spec, m):
        raise geometry.DomainError(f"a segment of the shift by steps {m} passes through the origin")
    src = _kept(m, (spec.n,) * 3)
    j, nx = _site_table(spec)
    xhat = tuple(j[..., k][src] for k in range(1, 4))
    xs = tuple(spec.axis()[rows].reshape((-1,) + (1,) * (2 - k)) for k, rows in enumerate(src))
    symbol = geometry._transport_value(xhat, nx[src], *geometry._far_end(xs, m * spec.step))
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
    is ``conj(z(x-h))``: the ``LinkStencil`` of ``_slice_gauge``'s links
    along ``axis``, with ``s = 1/2h``, looked up here and assembled into no
    matrix.
    """
    axis = _lattice_axis(axis, "covderiv")
    return FrameOp(spec, LinkStencil(_slice_gauge(spec)[1][axis], axis, 0.5 / spec.step), -1.0)


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
    scale = mass * spec.step**2
    coeff = -0.5 / scale if scale > 0.0 else -np.inf  # the hop weight; -6 times it on site
    if not np.isfinite(coeff):
        raise ValueError(f"the hop weight -1/(2 m h^2) overflows at mass {mass!r} "
                         f"and lattice step {spec.step!r}")
    return FrameOp(spec, _frame_matrix(spec, -6.0 * coeff, coeff), 1.0)


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
