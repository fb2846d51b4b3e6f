"""Complex-slice reduction of the quaternionic Hilbert space.

The slice is the one the whole program computes in, ``{psi : J psi = psi
e3}``: a complex Hilbert space over the slice field ``{u + v e3}``, where
``J`` is the radial complex structure (left multiplication by ``dirq``).
Any field splits uniquely as ``psi = psi1 + psi2 e1`` with both components
in the slice (``e1`` anticommutes with ``e3``; ``operators`` writes its
frame columns ``psi = q (f1 + f2 e1)`` with the same pair):

    psi1 =  (psi - J psi e3) / 2
    psi2 = -(psi + J psi e3) e1 / 2.

The doubled map ``psi -> (psi1, psi2)`` is a bijective isometry:
reconstruction is exact and ``|psi|^2 = |psi1|^2 + |psi2|^2``.  Operators
commuting with ``J`` (twisted shifts, the Hamiltonian) map the slice into
itself; a bare axis unit such as ``left_unit(0)`` does not, and
``reduce_check`` returns the order-one residual that proves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert, quat
from .hilbert import LatticeField
from .operators import Operator, jop


@dataclass
class SplitPair:
    psi1: LatticeField
    psi2: LatticeField


def _jmul(psi: LatticeField) -> np.ndarray:
    return quat.qmul(jop(psi.spec).symbol, psi.values)


def split(psi: LatticeField) -> SplitPair:
    """Decompose ``psi = psi1 + psi2 e1`` with both parts in the slice."""
    jpsi_w = quat.rmul(_jmul(psi), quat.E3)
    psi2 = quat.rmul(psi.values + jpsi_w, -0.5 * quat.E1)  # a power of two: exact
    psi1 = np.subtract(psi.values, jpsi_w, out=jpsi_w)
    psi1 *= 0.5
    return SplitPair(LatticeField(psi.spec, psi1), LatticeField(psi.spec, psi2))


def reconstruct(pair: SplitPair) -> LatticeField:
    """Inverse of ``split``: ``psi1 + psi2 e1``."""
    vals = quat.rmul(pair.psi2.values, quat.E1)
    vals += pair.psi1.values
    return LatticeField(pair.psi1.spec, vals)


def slice_residual(psi: LatticeField) -> float:
    """Max-site norm of ``(J psi)(x) - psi(x) e3``."""
    dev = _jmul(psi) - quat.rmul(psi.values, quat.E3)
    return float(quat.qnorm(dev).max())


def random_slice_member(spec, rng) -> LatticeField:
    """A smooth normalized slice member: split of a random Gaussian bump.

    Centers keep a comfortable distance from the monopole so that stencil
    operators applied to the member are well resolved.
    """
    center = rng.uniform(-0.45 * spec.box, 0.45 * spec.box, size=3)
    while not 0.3 * spec.box < np.linalg.norm(center) < 0.45 * spec.box:
        center = rng.uniform(-0.45 * spec.box, 0.45 * spec.box, size=3)
    width = rng.uniform(0.08 * spec.box, 0.12 * spec.box)
    raw = hilbert.sample(spec, hilbert.gaussian_field(center, width, rng.standard_normal(4)))
    psi1 = split(raw).psi1
    n = hilbert.norm(psi1)
    if n == 0.0:
        raise ValueError("degenerate random slice member")
    return LatticeField(spec, psi1.values / n)


def reduce_check(op: Operator, members: list):
    """Does ``op`` map slice members back into the slice?

    Applies ``op`` to each of ``members`` (smooth slice members, such as
    ``random_slice_member`` draws) and returns the arrays ``(before,
    after)`` of their relative slice residuals: the inputs' (membership
    sanity, roundoff) and the outputs'.  An order-one ``after`` certifies
    that ``op`` does not reduce to the slice.
    """
    before, after = np.empty(len(members)), np.empty(len(members))
    for k, psi in enumerate(members):
        before[k] = slice_residual(psi) / np.abs(psi.values).max()
        out = op(psi)
        scale = np.abs(out.values).max()
        after[k] = slice_residual(out) / scale if scale > 0.0 else 0.0
    return before, after
