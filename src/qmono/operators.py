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
from .report import CommutatorReport, Report, check_from_devs

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

    def __init__(self, spec: LatticeSpec, symbol: np.ndarray, label: str = "multiplier"):
        self.spec = spec
        self.symbol = np.broadcast_to(np.asarray(symbol, dtype=float), (spec.n,) * 3 + (4,))
        self.label = label

    def apply_values(self, vals):
        return quat.qmul(self.symbol, vals)

    def adjoint(self):
        return Multiplier(self.spec, quat.qconj(self.symbol), self.label + "*")


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


@functools.lru_cache(maxsize=None)
def _hop_links(spec: LatticeSpec, axis: int) -> np.ndarray:
    """Transport quaternions ``plus[x]`` from ``x+h`` to ``x`` along an axis.

    Axis hops never meet the origin on a cell-centered grid, and the links
    intertwine the radial complex structure exactly: ``j(x) plus[x] =
    plus[x] j(x+h)`` pointwise.  Computed once per lattice and axis and
    returned read-only.
    """
    step = spec.step * _AXES[axis]
    plus = geometry.transport(-step, spec.points() + step)
    plus.setflags(write=False)
    return plus


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
    return Multiplier(spec, sym, f"X{axis + 1}")


def left_unit(spec: LatticeSpec, axis: int) -> Multiplier:
    """Left multiplication by the constant imaginary unit e_axis."""
    return Multiplier(spec, np.eye(4)[axis + 1], f"e{axis + 1}^")


def jop(spec: LatticeSpec) -> Multiplier:
    """The radial complex structure: left multiplication by ``dirq(x)``.

    Unitary and anti-hermitian; squares to minus the identity.
    """
    return Multiplier(spec, geometry.dirq(spec.points()), "J")


def bfield_op(spec: LatticeSpec, axis: int) -> Multiplier:
    """Magnetic field component: multiplication by x_axis / (2 |x|^3)."""
    sym = np.zeros((spec.n,) * 3 + (4,))
    sym[..., 0] = geometry.bfield(spec.points())[..., axis]
    return Multiplier(spec, sym, f"B{axis + 1}")


def shift(spec: LatticeSpec, a) -> Shift:
    """Lattice translation by ``a`` (must be grid-commensurate)."""
    return Shift(spec, spec.commensurate_steps(a))


def transport_op(spec: LatticeSpec, a) -> Multiplier:
    """Unitary multiplier with symbol ``transport(a; x)`` at every site."""
    return Multiplier(spec, geometry.transport(np.asarray(a, dtype=float), spec.points()), "W")


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
    u = np.asarray(u, dtype=float)
    pts = spec.points()
    r2 = np.sum(pts * pts, axis=-1)
    sym = quat.from_vector(np.cross(u, pts) / (2.0 * r2)[..., None])
    return Multiplier(spec, sym, "conn")


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
    kap = curvature_coefficient(i, j, points)
    target = kap[..., None] * quat.qmul(geometry.dirq(points), fn(points))
    dev = quat.qnorm(comm - target)
    return CommutatorReport(
        pair=f"[grad_{i + 1}, grad_{j + 1}]",
        description=f"nested central differences vs curvature multiplier at {len(points)} points",
        h=h,
        max_dev=float(dev.max()),
        mean_dev=float(dev.mean()),
    )


def curvature_coefficient(i: int, j: int, x) -> np.ndarray:
    """The scalar ``kappa_ij(x) = -eps_ijk x^k / (2 |x|^3)``."""
    return geometry.curvature(x).kappa[..., i, j]


# ---------------------------------------------------------------------------
# generalized-imprimitivity verification

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


def _sample_steps(rng, spec: LatticeSpec, max_step: int = 3) -> np.ndarray:
    """Random commensurate shift steps admissible at every lattice site."""
    while True:
        m = rng.integers(-max_step, max_step + 1, size=3)
        if _steps_admissible(spec, m):
            return m


def _sample_step_pair(rng, spec: LatticeSpec, max_step: int = 2):
    """Random pair (a, b) with a, b and a + b all admissible."""
    while True:
        ma = rng.integers(-max_step, max_step + 1, size=3)
        mb = rng.integers(-max_step, max_step + 1, size=3)
        if all(_steps_admissible(spec, m) for m in (ma, mb, ma + mb)):
            return ma, mb


def _sample_box(rng, spec: LatticeSpec, margin: int) -> hilbert.Box:
    """Random box with faces on cell boundaries, away from the walls."""
    half = spec.n // 2 - margin
    lo = rng.integers(-half, half - 1, size=3)
    hi = np.array([rng.integers(l + 1, half + 1) for l in lo])
    return hilbert.Box.of(lo * spec.step, hi * spec.step)


def _bitexact_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """0.0 if the arrays are exactly equal, else their largest difference."""
    return 0.0 if np.array_equal(lhs, rhs) else float(np.abs(lhs - rhs).max())


def _covariance_dev(rng, spec: LatticeSpec, psi: LatticeField):
    """Draw admissible steps and a box; check ``U(a) E(box) = E(box+a) U(a)``.

    Returns the steps and the bit-exact deviation on ``psi``.
    """
    steps = _sample_steps(rng, spec)
    a = steps * spec.step
    box = _sample_box(rng, spec, margin=1)
    u = twisted_shift(spec, a)
    lhs = u(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(a), u(psi))
    return steps, _bitexact_dev(lhs.values, rhs.values)


def _closure_defect(rng, spec: LatticeSpec):
    """Draw an admissible step pair and check the closure defect.

    Returns ``(a, b, defect, core_symbol, dev, structural)``: the shifts,
    ``compose_defect(spec, a, b)``, its symbol on the sites its shifts
    leave unclipped, the symbol's deviation from ``geometry.multiplier(a,
    b, x)`` there, and 0.0 if the defect is structurally pointwise (else
    1.0).
    """
    ma, mb = _sample_step_pair(rng, spec)
    a, b = ma * spec.step, mb * spec.step
    defect = compose_defect(spec, a, b)
    sym = symbol_of(defect)
    core = interior_mask(spec, defect_clip_cells(ma, mb) + 1)
    dev = float(quat.qnorm(sym - geometry.multiplier(a, b, spec.points()))[core].max())
    return a, b, defect, sym[core], dev, 0.0 if is_pointwise(defect) else 1.0


def gis_verify(spec: LatticeSpec, samples: int = 1000, seed: int = 42,
               tol: float = 1e-12, flux_samples: int = 2000) -> Report:
    """Check the three generalized-imprimitivity axioms on random inputs.

    covariance:   twisted_shift(a) E(box) == E(box + a) twisted_shift(a),
                  bit-exact on commensurate shifts;
    composition:  the closure defect of two twisted shifts is a pointwise
                  multiplier whose symbol matches the transport product;
    multiplier:   the defect symbol is quaternion-valued of unit norm, and
                  commutes bit-exactly with every spectral projection.

    Associativity is quantized flux: for random tetrahedra the total flux
    lands on {0, 2pi} and ``qexp(dirq(x) * flux)`` is the unit.
    """
    rng = np.random.default_rng(seed)
    rep = Report(suite="gis", seed=seed, n_samples=samples)
    psi = LatticeField(spec, rng.standard_normal((spec.n,) * 3 + (4,)))

    cov_dev = [_covariance_dev(rng, spec, psi)[1] for _ in range(samples)]
    rep.checks.append(check_from_devs(
        "covariance", "U(a) E(box) = E(box+a) U(a), bit-exact", cov_dev, 0.0))

    comp_dev, mult_norm_dev, mult_comm_dev, structural = [], [], [], []
    for _ in range(max(1, samples // 50)):
        _, _, defect, sym, dev, pointwise = _closure_defect(rng, spec)
        structural.append(pointwise)
        comp_dev.append(dev)
        mult_norm_dev.append(float(np.abs(quat.qnorm(sym) - 1.0).max()))
        box = _sample_box(rng, spec, margin=1)
        lhs = defect(hilbert.project(box, psi))
        rhs = hilbert.project(box, defect(psi))
        mult_comm_dev.append(_bitexact_dev(lhs.values, rhs.values))
    rep.checks.append(check_from_devs(
        "composition-defect", "symbol of U(a+b)* U(a) U(b) = w(a+b;x)* w(a;x+b) w(b;x)",
        comp_dev, tol))
    rep.checks.append(check_from_devs(
        "defect-pointwise", "closure defect has zero net displacement", structural, 0.0))
    rep.checks.append(check_from_devs(
        "multiplier-unit", "|m(a,b;x)| = 1", mult_norm_dev, tol))
    rep.checks.append(check_from_devs(
        "multiplier-commutes", "M(a,b) E(box) = E(box) M(a,b), bit-exact", mult_comm_dev, 0.0))

    x, flux, flux_dev = _sample_tetraflux(rng, flux_samples)
    rep.checks.append(check_from_devs(
        "flux-quantization", "tetrahedron flux in {0, 2pi} (inside iff 2pi)", flux_dev, 1e-9))
    holo = quat.qexp(geometry.dirq(x) * flux[:, None])
    rep.checks.append(check_from_devs(
        "associativity", "qexp(dirq(x) * tetraflux) = e0",
        quat.qnorm(holo - quat.E0), 1e-9))
    return rep


def origin_near_tet_face(x, a, b, c, margin: float = 1e-3) -> np.ndarray:
    """True where the origin sits within ``margin`` of a face (in barycentric
    coordinates) or a vertex nearly coincides with the origin."""
    verts, total, subs = geometry._tet_volumes(x, a, b, c)
    bad = np.abs(total) < 1e-9
    safe_total = np.where(bad, 1.0, total)
    for lam in subs:
        bad |= np.abs(lam / safe_total) < margin
    for p in verts:
        bad |= np.linalg.norm(p, axis=-1) < 0.05
    return bad


def _sample_tetraflux(rng, m: int):
    """Flux through ``m`` random tetrahedra against its quantized value.

    Draws edge walks (x, a, b, c), drops those with the origin near a face
    or vertex, and returns ``(x, flux, |flux - 2 pi [origin inside]|)``
    for the rest; inside-ness comes from the signed-volume oracle.
    """
    x = rng.uniform(-2.0, 2.0, size=(m, 3))
    a, b, c = (rng.uniform(-1.5, 1.5, size=(m, 3)) for _ in range(3))
    keep = ~origin_near_tet_face(x, a, b, c)
    x, a, b, c = x[keep], a[keep], b[keep], c[keep]
    flux = geometry.tetraflux(x, a, b, c)
    inside = geometry.origin_inside_tetrahedron(x, a, b, c)
    return x, flux, np.abs(flux - np.where(inside, 2.0 * np.pi, 0.0))
