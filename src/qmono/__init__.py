"""Quaternionic quantum mechanics of a magnetic monopole, numerically.

The package discretizes quaternion-valued wavefunctions on an
origin-avoiding lattice and verifies the algebraic, geometric and
dynamical structure of a charged particle in a monopole field: parallel
transport cocycles, operator-valued multipliers and their flux form,
quantized total flux, the Chern integral of the curvature two-form,
spin-half behaviour under full rotations, complex-slice reduction, and
norm-preserving Cayley evolution with the Ehrenfest laws.

Modules
-------
quat       quaternion arithmetic on plain (..., 4) arrays
geometry   transport, fluxes, curvature, Chern quadrature
hilbert    lattice fields, inner product, spectral boxes
operators  multipliers, shifts, slice-frame matrix operators
splitting  complex-slice decomposition and reduction checks
dynamics   Cayley evolution and Ehrenfest verification
runner     where work runs: the thread beside the caller, forked task lists
verify     identity suites, imprimitivity included, and samplers (CLI backend)
cli        `qmono` command-line entry point
"""

from . import dynamics, geometry, hilbert, operators, quat, report, runner, splitting, verify
from .geometry import DomainError
from .hilbert import Box, LatticeField, LatticeSpec
from .report import Check, Report

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Check",
    "DomainError",
    "LatticeField",
    "LatticeSpec",
    "Report",
    "__version__",
    "dynamics",
    "geometry",
    "hilbert",
    "operators",
    "quat",
    "report",
    "runner",
    "splitting",
    "verify",
]
