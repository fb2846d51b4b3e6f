"""Quaternion arithmetic on plain numpy arrays.

A quaternion ``q = q0*e0 + q1*e1 + q2*e2 + q3*e3`` is stored as a length-4
float array ``[q0, q1, q2, q3]``; ``e0`` is the unit and the imaginary basis
multiplies as ``e_i e_j = -delta_ij e0 + eps_ijk e_k``.  Every function here
broadcasts over leading axes, so a whole field of quaternions is just an
array of shape ``(..., 4)`` and the scalar case is the shape ``(4,)``
special case of the same code.
"""

from __future__ import annotations

import math

import numpy as np

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])

#: sites per ``qmul`` block (chosen by timing 4096, 8192 and 16384 at n = 32
#: and 48): the block's ten planes, 640 KiB, stay in a core's L2 cache
QMUL_BLOCK = 8192


#: the four products ``p_i q_j`` of each component of ``p q``, summed left
#: to right: the first, then each later one added or subtracted, as in
#: ``p0 q0 - p1 q1 - p2 q2 - p3 q3`` for component 0
_PRODUCTS = (
    ((0, 0), (np.subtract, 1, 1), (np.subtract, 2, 2), (np.subtract, 3, 3)),
    ((0, 1), (np.add, 1, 0), (np.add, 2, 3), (np.subtract, 3, 2)),
    ((0, 2), (np.subtract, 1, 3), (np.add, 2, 0), (np.add, 3, 1)),
    ((0, 3), (np.add, 1, 2), (np.subtract, 2, 1), (np.add, 3, 0)),
)


def _planes(q, rows):
    """The four component planes of ``q[rows]``, as contiguous copies."""
    return np.ascontiguousarray(q[rows].transpose(-1, *range(q.ndim - 1)))


def qmul(p, q) -> np.ndarray:
    """Quaternion product ``p q`` (non-commutative), broadcasting over (..., 4).

    Evaluated in blocks of about ``QMUL_BLOCK`` sites along the first axis,
    on contiguous component planes and two reused block buffers, so that a
    whole field's temporaries never leave the cache.  A single quaternion
    is a batch of one.  Each component is the same four products, summed
    in the same order, at every site.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    shape = np.broadcast_shapes(p.shape, q.shape)
    full = shape if len(shape) > 1 else (1,) + shape
    p, q = (x if x.shape == full else np.broadcast_to(x, full) for x in (p, q))
    out = np.empty(full)
    step = max(1, QMUL_BLOCK // max(1, math.prod(full[1:-1])))
    acc = np.empty((min(step, full[0]),) + full[1:-1])
    term = np.empty_like(acc)
    for start in range(0, full[0], step):
        rows = slice(start, start + step)
        pp, qq, o = _planes(p, rows), _planes(q, rows), out[rows]
        a, t = acc[:len(o)], term[:len(o)]
        for k, ((i, j), *rest) in enumerate(_PRODUCTS):
            np.multiply(pp[i], qq[j], out=a)
            for op, i, j in rest:
                op(a, np.multiply(pp[i], qq[j], out=t), out=a)
            o[..., k] = a
    return out.reshape(shape)


def rmul(p, c) -> np.ndarray:
    """Right product ``p c`` of values ``p`` of shape (..., 4) by one quaternion ``c``.

    One matrix product ``p @ R(c)`` on the flattened values, where row ``i``
    of the 4x4 right-multiplication matrix ``R(c)`` is ``e_i c``.  It agrees
    with ``qmul(p, c)`` to roundoff (BLAS sums the four products in its own
    order) and bit for bit when ``c`` is a signed basis unit.
    """
    p = np.asarray(p, dtype=float)
    c0, c1, c2, c3 = np.asarray(c, dtype=float)
    r = np.array([[c0, c1, c2, c3],
                  [-c1, c0, -c3, c2],
                  [-c2, c3, c0, -c1],
                  [-c3, -c2, c1, c0]])
    return (p.reshape(-1, 4) @ r).reshape(p.shape)


def qconj(q) -> np.ndarray:
    """Conjugate ``q* = [q0, -q1, -q2, -q3]``; anti-automorphism ``(pq)* = q* p*``."""
    q = np.asarray(q, dtype=float)
    out = np.negative(q)
    out[..., 0] = q[..., 0]
    return out


def qnorm(q) -> np.ndarray:
    """Euclidean norm; multiplicative: ``|pq| = |p||q|``.

    The squares are added plane by plane in component order, the order in
    which ``np.sum(q * q, axis=-1)`` adds them, without the ``q * q`` copy.
    """
    q = np.asarray(q, dtype=float)
    acc = q[..., 0] * q[..., 0]
    for k in range(1, 4):
        acc += q[..., k] * q[..., k]
    return np.sqrt(acc)


def vector_part(q) -> np.ndarray:
    """The (e1, e2, e3) components as a (..., 3) array."""
    return np.asarray(q, dtype=float)[..., 1:]


def from_vector(v) -> np.ndarray:
    """Embed a 3-vector as the imaginary quaternion ``v . e``."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def qexp(q) -> np.ndarray:
    """Quaternion exponential.

    With ``q = r e0 + v`` (``v`` imaginary),
    ``exp(q) = e^r (cos|v| e0 + (v/|v|) sin|v|)``; the ``sin|v|/|v|`` ratio is
    evaluated as a sinc so the ``v -> 0`` limit is exact.
    """
    q = np.asarray(q, dtype=float)
    r = q[..., 0]
    v = q[..., 1:]
    nv = np.sqrt(np.sum(v * v, axis=-1))
    scale = np.exp(r)
    out = np.empty(q.shape)
    out[..., 0] = scale * np.cos(nv)
    out[..., 1:] = (scale * np.sinc(nv / np.pi))[..., None] * v
    return out


def su2(q) -> np.ndarray:
    """The 2x2 complex matrix of ``q`` under ``e0 -> I``, ``e_k -> -i sigma_k``.

    Real-linear and multiplicative: ``su2(pq) = su2(p) @ su2(q)``; unit
    quaternions map onto SU(2).  Returns shape (..., 2, 2).
    """
    q = np.asarray(q, dtype=float)
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    m = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = q0 - 1j * q3
    m[..., 0, 1] = -q2 - 1j * q1
    m[..., 1, 0] = q2 - 1j * q1
    m[..., 1, 1] = q0 + 1j * q3
    return m


def auto(omega, q) -> np.ndarray:
    """Inner automorphism ``q -> omega* q omega`` for a unit quaternion omega.

    Fixes the complex slice of omega pointwise when omega is an imaginary
    unit.  Raises ValueError if omega is not unit length.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(np.abs(qnorm(omega) - 1.0) > 1e-9):
        raise ValueError("auto requires a unit quaternion omega")
    return qmul(qconj(omega), qmul(q, omega))

