"""Operator algebra on lattice fields.

Operators act on the left of quaternion-valued fields and compose
right-to-left: ``(A @ B)(psi) = A(B(psi))``.  The kinds are

* pointwise left multipliers (position, the radial complex structure ``jop``,
  the axis units, transport phases, field components),
* exact lattice shifts (``shift``; Dirichlet zero fill, commensurate only),
* frame operators (``FrameOp``: ``covderiv`` and ``hamiltonian``, which hop
  between neighbors through unit transport links).  They commute with
  ``jop``, so each is one complex sparse matrix in the gauge ``q(x) =
  slice_frame(x, e3)``, where every link is a U(1) phase; ``dynamics``
  evolves with the same matrices,
* plain difference stencils (``Diff``: zero-padded central differences,
  exactly antisymmetric in the lattice inner product),
* composites and real-linear combinations of the above.

Conventions fixed here (and relied on by the verification suites):

* ``shift(a)``: ``psi -> psi(. - a)``; conjugating a spectral projection
  translates its box by ``+a``.
* ``twisted_shift(a) = shift(a) @ transport_op(a)`` is unitary, covariant
  over boxes, and ``(twisted_shift(s*u)(psi) - psi)/s -> -covderiv(u)(psi)``
  as ``s -> 0``.
* ``compose_defect(a, b) = twisted_shift(a+b)* @ twisted_shift(a) @
  twisted_shift(b)`` is a pointwise multiplier whose symbol is
  ``geometry.multiplier(a, b, x)``.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from . import geometry, hilbert, quat
from .hilbert import LatticeField, LatticeSpec
from .report import CommutatorReport

_AXES = np.eye(3)


def _shift_axis(vals: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Shift samples m grid cells along an axis, filling with zeros."""
    if m == 0:
        return vals.copy()
    out = np.zeros_like(vals)
    src = [slice(None)] * vals.ndim
    dst = [slice(None)] * vals.ndim
    if m > 0:
        dst[axis] = slice(m, None)
        src[axis] = slice(None, -m)
    else:
        dst[axis] = slice(None, m)
        src[axis] = slice(-m, None)
    out[tuple(dst)] = vals[tuple(src)]
    return out


def _central_diff(vals: np.ndarray, axis: int, step: float) -> np.ndarray:
    # (psi(x + h) - psi(x - h)) / 2h with zero extension outside the box
    return (_shift_axis(vals, axis, -1) - _shift_axis(vals, axis, 1)) / (2.0 * step)


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

    def __matmul__(self, other: "Operator") -> "Operator":
        return Compose((self, other))

    def __add__(self, other: "Operator") -> "Operator":
        return OpSum((self, other))

    def __sub__(self, other: "Operator") -> "Operator":
        return OpSum((self, Scaled(-1.0, other)))

    def __neg__(self) -> "Operator":
        return Scaled(-1.0, self)

    def __mul__(self, c: float) -> "Operator":
        return Scaled(float(c), self)

    __rmul__ = __mul__


class Multiplier(Operator):
    """Pointwise left multiplication by a quaternion-valued symbol."""

    def __init__(self, spec: LatticeSpec, symbol: np.ndarray):
        self.spec = spec
        self.symbol = np.broadcast_to(np.asarray(symbol, dtype=float), (spec.n,) * 3 + (4,))

    def apply_values(self, vals):
        return quat.qmul(self.symbol, vals)

    def adjoint(self):
        return Multiplier(self.spec, quat.qconj(self.symbol))


class Shift(Operator):
    """Exact lattice translation ``psi -> psi(. - a)`` (zero fill)."""

    def __init__(self, spec: LatticeSpec, steps):
        self.spec = spec
        self.steps = np.asarray(steps, dtype=int)

    @property
    def a(self) -> np.ndarray:
        return self.steps * self.spec.step

    def apply_values(self, vals):
        out = vals
        for axis, m in enumerate(self.steps):
            out = _shift_axis(out, axis, int(m))
        return out

    def adjoint(self):
        return Shift(self.spec, -self.steps)


class Diff(Operator):
    """Central difference along one axis; exactly antisymmetric."""

    def __init__(self, spec: LatticeSpec, axis: int):
        self.spec = spec
        self.axis = int(axis)

    def apply_values(self, vals):
        return _central_diff(vals, self.axis, self.spec.step)

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
        here, there = [slice(None)] * 3, [slice(None)] * 3
        here[axis], there[axis] = slice(None, -1), slice(1, None)
        here, there = tuple(here), tuple(there)
        w = quat.qmul(quat.qconj(q[here]), quat.qmul(plus[here], q[there]))
        z = np.zeros((spec.n,) * 3, dtype=complex)
        z[here] = w[..., 0] + 1j * w[..., 3]
        z.setflags(write=False)
        links.append(z)
    return q, tuple(links)


def _frame_matrix(spec: LatticeSpec, diag: complex, hops: dict) -> sparse.csr_matrix:
    """Complex ``n^3 x n^3`` matrix: ``diag`` on the diagonal and, for each
    ``axis: (up, down)`` in ``hops``, ``up z(x)`` at ``(x, x+h)`` and
    ``down conj(z(x))`` at ``(x+h, x)``."""
    n = spec.n
    size = n**3
    links = _slice_gauge(spec)[1]
    diagonals, offsets = [np.full(size, diag)], [0]
    for axis, (up, down) in hops.items():
        stride = n ** (2 - axis)
        z = links[axis].ravel()[:size - stride]
        diagonals += [up * z, down * z.conj()]
        offsets += [stride, -stride]
    mat = sparse.diags(diagonals, offsets, shape=(size, size), format="csr", dtype=complex)
    mat.eliminate_zeros()  # the wall entries, and a zero diagonal
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
    """The quaternion values ``q (f1 + f2 e1)`` of the columns ``(f1, f2)``."""
    g = np.empty((cols.shape[0], 4))
    g[:, :2] = cols.real
    g[:, 3:1:-1] = cols.imag
    return quat.qmul(q, g.reshape(q.shape))


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

    def adjoint(self):
        return Scaled(self.coeff, self.op.adjoint())


class OpSum(Operator):
    def __init__(self, ops):
        self.ops = tuple(ops)
        self.spec = self.ops[0].spec

    def apply_values(self, vals):
        out = self.ops[0].apply_values(vals)
        for op in self.ops[1:]:
            out = out + op.apply_values(vals)
        return out

    def adjoint(self):
        return OpSum(tuple(op.adjoint() for op in self.ops))


class Compose(Operator):
    """Composite; factors apply right-to-left."""

    def __init__(self, ops):
        self.ops = tuple(ops)
        self.spec = self.ops[0].spec

    def apply_values(self, vals):
        for op in reversed(self.ops):
            vals = op.apply_values(vals)
        return vals

    def adjoint(self):
        return Compose(tuple(op.adjoint() for op in reversed(self.ops)))


def net_shift(op: Operator):
    """Total grid displacement of a composite, or None if not shift-like."""
    if isinstance(op, Multiplier):
        return np.zeros(3, dtype=int)
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


def expectation(op: Operator, psi: LatticeField) -> float:
    """Normalized real expectation value Re inner(psi, A psi) / |psi|^2."""
    num = hilbert.inner(psi, op(psi))[0]
    den = hilbert.norm(psi) ** 2
    return float(num / den)


# ---------------------------------------------------------------------------
# factories

def position(spec: LatticeSpec, axis: int) -> Multiplier:
    """Position component: multiplication by the real coordinate x_axis."""
    sym = np.zeros((spec.n,) * 3 + (4,))
    sym[..., 0] = spec.points()[..., axis]
    return Multiplier(spec, sym)


def left_unit(spec: LatticeSpec, axis: int) -> Multiplier:
    """Left multiplication by the constant imaginary unit e_axis."""
    return Multiplier(spec, np.eye(4)[axis + 1])


def jop(spec: LatticeSpec) -> Multiplier:
    """The radial complex structure: left multiplication by ``dirq(x)``.

    Unitary and anti-hermitian; squares to minus the identity.
    """
    return Multiplier(spec, geometry.dirq(spec.points()))


def bfield_op(spec: LatticeSpec, axis: int) -> Multiplier:
    """Magnetic field component: multiplication by x_axis / (2 |x|^3)."""
    sym = np.zeros((spec.n,) * 3 + (4,))
    sym[..., 0] = geometry.bfield(spec.points())[..., axis]
    return Multiplier(spec, sym)


def shift(spec: LatticeSpec, a) -> Shift:
    """Lattice translation by ``a`` (must be grid-commensurate)."""
    return Shift(spec, spec.commensurate_steps(a))


def transport_op(spec: LatticeSpec, a) -> Multiplier:
    """Unitary multiplier with symbol ``transport(a; x)`` at every site."""
    return Multiplier(spec, geometry.transport(np.asarray(a, dtype=float), spec.points()))


def twisted_shift(spec: LatticeSpec, a) -> Compose:
    """Transported translation: shift after the transport phase; unitary."""
    return Compose((shift(spec, a), transport_op(spec, a)))


def compose_defect(spec: LatticeSpec, a, b) -> Compose:
    """The multiplier closing ``twisted_shift(a) @ twisted_shift(b)``.

    Returned as the raw composite ``twisted_shift(a+b)* @ twisted_shift(a) @
    twisted_shift(b)``; structurally pointwise (net displacement zero), with
    symbol ``geometry.multiplier(a, b, x)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return Compose((twisted_shift(spec, a + b).adjoint(),
                    twisted_shift(spec, a),
                    twisted_shift(spec, b)))


def connection(spec: LatticeSpec, u) -> Multiplier:
    """The connection multiplier ``e . (u cross x) / (2 |x|^2)``."""
    return Multiplier(spec, connection_value(u, spec.points()))


def covderiv(spec: LatticeSpec, u) -> FrameOp:
    """Covariant derivative along the unit direction ``u``.

    Central difference of parallel-transported neighbors,

        (grad_i psi)(x) = [plus(x) psi(x+h) - minus(x) psi(x-h)] / 2h,

    summed over axes with the components of ``u``.  Expanding the links
    recovers ``u . d + e . (u cross x)/(2 |x|^2)`` to second order, and the
    link form makes the structure exact on the lattice: anti-hermitian,
    commuting with ``jop``, and ``[hamiltonian, position_i] = -(1/m)
    covderiv_i`` as an operator identity (a bare multiplier connection
    would leave O(h^2) mismatches in all three).  In the slice frame the
    link ``plus`` is the phase ``z`` and ``minus(x)`` is ``conj(z(x-h))``.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("covderiv direction must be a unit vector")
    s = 0.5 / spec.step
    hops = {ax: (u[ax] * s, -u[ax] * s) for ax in range(3) if u[ax] != 0.0}
    return FrameOp(spec, _frame_matrix(spec, 0.0, hops), -1.0)


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
    if mass <= 0.0:
        raise ValueError("mass must be positive")
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


def rotation_matrix(axis: int, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    j = (axis + 1) % 3
    k = (axis + 2) % 3
    r = np.eye(3)
    r[j, j] = c
    r[k, k] = c
    r[j, k] = -s
    r[k, j] = s
    return r


def rotation_exp_fn(fn, axis: int, theta: float):
    """Finite rotation ``exp(theta * rotgen(axis))`` of an analytic field.

    Factored exactly: rotate the argument, left-multiply by the half-angle
    spin phase ``qexp(-theta/2 e_axis)``.  At ``theta = 2 pi`` the orbital
    factor is the identity and the spin factor is ``-e0``: one full turn
    maps ``psi`` to ``-psi``.
    """
    rot = rotation_matrix(axis, theta)
    phase = quat.qexp(-0.5 * theta * np.eye(4)[axis + 1])

    def r(x):
        x = np.asarray(x, dtype=float)
        return quat.qmul(phase, fn(x @ rot.T))

    return r


def commutator_check(i: int, j: int, fn, points, h: float) -> CommutatorReport:
    """Compare ``[covderiv_i, covderiv_j]`` against the curvature multiplier.

    Both derivatives are nested step-h central differences on the analytic
    field ``fn``; the target is ``kappa_ij(x) * dirq(x) * fn(x)``.  The
    deviation is O(h^2) on smooth fields away from the origin.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    di_dj = covderiv_fn(covderiv_fn(fn, _AXES[j], h), _AXES[i], h)
    dj_di = covderiv_fn(covderiv_fn(fn, _AXES[i], h), _AXES[j], h)
    comm = di_dj(points) - dj_di(points)
    kap = geometry.curvature(points).kappa[..., i, j]
    target = kap[..., None] * quat.qmul(geometry.dirq(points), fn(points))
    dev = quat.qnorm(comm - target)
    return CommutatorReport(
        pair=f"[grad_{i + 1}, grad_{j + 1}]",
        description=f"nested central differences vs curvature multiplier at {len(points)} points",
        h=h,
        max_dev=float(dev.max()),
        mean_dev=float(dev.mean()),
    )


# ---------------------------------------------------------------------------
# lattice domain

def _steps_admissible(spec: LatticeSpec, m) -> bool:
    """True if the shift ``m * step`` keeps every site's segment off the origin.

    Site coordinates are odd multiples of h/2, so the segment from ``x``
    to ``x + m h`` meets the origin iff ``x = -k p h/2`` for an odd ``0 < k
    < 2 gcd(|m|)``, where ``p = m / gcd(|m|)``.  That needs every component
    of ``m`` nonzero and every ``p_i`` odd; the site with ``k = 1`` then
    exists iff ``max |p_i| <= n - 1`` (e.g. steps (2,2,2) from the site at
    -(1,1,1)h/2).  Decided in integers, with no float margin.
    """
    m = np.asarray(m, dtype=int)
    if not m.all():
        return True
    p = m // np.gcd.reduce(np.abs(m))
    return not (np.all(p % 2 == 1) and np.abs(p).max() <= spec.n - 1)
