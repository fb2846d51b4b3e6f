"""Reference definitions that only the tests use.

Each is an oracle or a negative control that the tests compare the
package against; none is called by a suite, the CLI or the benchmark, so
they live beside the tests instead of in the package.
"""

import numpy as np

from qmono import geometry, hilbert
from qmono.hilbert import LatticeField, LatticeSpec
from qmono.operators import (Compose, Diff, Operator, Scaled, _factors, left_unit,
                             position)


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

    def apply_values(self, vals):
        out = self.ops[0].apply_values(vals)
        for op in self.ops[1:]:
            out = out + op.apply_values(vals)
        return out


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
