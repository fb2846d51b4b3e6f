"""Unitary wavepacket evolution and the Ehrenfest identities.

The continuum evolution is ``psi(t) = exp(-J H t) psi(0)``.  On the lattice
one Cayley step advances by

    psi  <-  (I + (dt/2) J H)^(-1) (I - (dt/2) J H) psi.

The transported-hop Hamiltonian commutes with ``J`` exactly, so the
evolution is a complex problem, and it is solved as one.  In the gauge
``q(x) = geometry.slice_frame(x, e3)`` every transport link ``q(x)* plus(x)
q(x+h)`` lies in ``span{1, e3}``: it is a U(1) phase.  A field ``psi =
q (f1 + f2 e1)`` is held as two complex columns ``(f1, f2)``; ``H`` is
the hermitian complex 7-point matrix of ``operators.hamiltonian`` (a
``FrameOp``) acting on both columns alike, and ``J`` becomes
multiplication by ``i``.  The frame is singular only on the ray ``x = y =
0, z < 0``, which plays the role of the Dirac string (Wu and Yang, Phys.
Rev. D 12, 3845, 1975) and which a cell-centered grid never samples.  The
Cayley step runs conjugate gradients on its normal equations in this
frame.

Expectation values drive the Ehrenfest checks: the velocity observable is
``-(J/m) grad_i`` and the acceleration matches the symmetrized magnetic
force ``eps_ijk (v_j B_k + B_k v_j) / (2m)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from . import geometry, hilbert, operators as ops, quat
from .hilbert import LatticeField, LatticeSpec
from .operators import _hop_links  # noqa: F401  (perfbench/test_perfbench.py traces this alias)
from .report import Report, check_from_devs


def build_hamiltonian_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """``Q* H Q``: the matrix of ``operators.hamiltonian`` in the slice frame."""
    return ops.hamiltonian(spec, mass).matrix


def build_gradient_matrices(spec: LatticeSpec) -> list:
    """``Q* grad_i Q``: the matrices of ``operators.covderiv`` along each axis."""
    return [ops.covderiv(spec, e).matrix for e in np.eye(3)]


def build_generator_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """``i Q* H Q``: the step generator ``J H`` in the slice frame, where
    ``J`` is multiplication by ``i``; exactly anti-hermitian."""
    return 1j * ops.hamiltonian(spec, mass).matrix


class _SliceFrame:
    """Fields to and from their slice-frame columns ``(f1, f2)``, with
    ``psi = q (f1 + f2 e1)``.

    The last converted pair is kept: a field passed on unchanged (a step's
    output recorded, then stepped again) is converted once, since fields
    are immutable snapshots.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        self.q = ops._slice_gauge(spec)[0]
        self._field = None
        self._cols = None

    def cols(self, psi: LatticeField) -> np.ndarray:
        """The ``(n^3, 2)`` complex columns of ``psi``."""
        if psi is not self._field:
            self._field, self._cols = psi, ops._to_cols(self.q, psi.values)
        return self._cols

    def field(self, cols: np.ndarray) -> LatticeField:
        """The field whose ``(n^3, 2)`` complex columns are ``cols``."""
        psi = LatticeField(self.spec, ops._from_cols(self.q, cols))
        self._field, self._cols = psi, cols
        return psi


def gaussian_packet(spec: LatticeSpec, center, sigma: float, kick,
                    omega=tuple(quat.E3)) -> LatticeField:
    """Normalized Gaussian packet lying exactly in the slice of ``omega``.

    Envelope ``exp(-|x - center|^2 / (4 sigma^2))`` (position spread sigma),
    carried on the slice frame and kicked by the right slice phase
    ``qexp(omega (kick . x))``.
    """
    pts = spec.points()
    center = np.asarray(center, dtype=float)
    kick = np.asarray(kick, dtype=float)
    w = np.asarray(omega, dtype=float)
    env = np.exp(-np.sum((pts - center) ** 2, axis=-1) / (4.0 * sigma**2))
    frame = geometry.slice_frame(pts, w)
    phase = quat.qexp(w * np.sum(pts * kick, axis=-1)[..., None])
    vals = env[..., None] * quat.qmul(frame, phase)
    psi = LatticeField(spec, vals)
    return LatticeField(spec, vals / hilbert.norm(psi))


@dataclass
class EvolutionConfig:
    """Packet, lattice and integrator parameters for one run."""

    lattice: LatticeSpec
    mass: float = 1.0
    dt: float = 0.02
    steps: int = 100
    center: tuple = (-2.0, 1.5, 0.0)
    sigma: float = 0.8
    kick: tuple = (0.0, 0.0, 0.0)
    omega: tuple = tuple(quat.E3)
    solver_rtol: float = 1e-13
    record_force: bool = True

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.dt < 0.0:
            raise ValueError("dt must be nonnegative")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        # the packet must sit at least 3 sigma from the monopole and from
        # every wall, or its expectation values are not trustworthy
        center = np.asarray(self.center, dtype=float)
        if np.linalg.norm(center) < 3.0 * self.sigma:
            raise ValueError("packet center closer than 3 sigma to the monopole")
        if self.lattice.box - np.abs(center).max() < 3.0 * self.sigma:
            raise ValueError("packet center closer than 3 sigma to the box walls")


class CayleyEvolver:
    """Norm-preserving time stepper for the monopole Hamiltonian.

    Solves ``(I + M) f' = (I - M) f`` each step on the slice-frame columns,
    ``M = (dt/2) i Q* H Q`` held as a precomputed sparse matrix; conjugate
    gradients run on the normal equations ``(I - M^2)``, hermitian positive
    definite because ``M`` is anti-hermitian.  ``cg_iters`` records the
    iteration count of every step.
    """

    def __init__(self, spec: LatticeSpec, mass: float, dt: float,
                 solver_rtol: float = 1e-13):
        self.spec = spec
        self.mass = mass
        self.dt = dt
        self.solver_rtol = solver_rtol
        self.frame = _SliceFrame(spec)
        self.cg_iters: list[int] = []
        self._m = None
        self._prev = None
        if dt != 0.0:
            self._m = (0.5 * dt) * build_generator_matrix(spec, mass)
            n2 = 2 * spec.n**3
            self._linop = LinearOperator((n2, n2), matvec=self._normal_matvec, dtype=complex)

    def _normal_matvec(self, flat: np.ndarray) -> np.ndarray:
        cols = flat.reshape(-1, 2)
        return (cols - self._m @ (self._m @ cols)).ravel()

    def step(self, psi: LatticeField) -> LatticeField:
        if psi.spec != self.spec:
            raise ValueError("field lattice does not match the evolver")
        if self.dt == 0.0:
            self.cg_iters.append(0)
            return psi.copy()
        v = self.frame.cols(psi)
        b = v - self._m @ v
        rhs = (b - self._m @ b).ravel()
        # warm start: linear extrapolation from the previous step when available
        x0 = (2.0 * v - self._prev) if self._prev is not None else b
        self.cg_iters.append(0)

        def count(_):
            self.cg_iters[-1] += 1

        sol, info = cg(self._linop, rhs, x0=x0.ravel(), rtol=self.solver_rtol, atol=0.0,
                       maxiter=500, callback=count)
        if info != 0:
            res = np.linalg.norm(self._normal_matvec(sol) - rhs)
            raise RuntimeError(f"Cayley inner solve did not converge (info={info}, residual={res:.3e})")
        self._prev = v
        return self.frame.field(sol.reshape(-1, 2))


@dataclass
class Trajectory:
    """Expectation-value time series recorded along a run."""

    times: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    force: np.ndarray | None = None

    def save_csv(self, path) -> None:
        cols = [self.times, *self.position.T, *self.velocity.T, self.norm, self.energy]
        np.savetxt(
            path,
            np.column_stack(cols),
            delimiter=",",
            fmt="%.12g",
            header="t,x1,x2,x3,v1,v2,v3,norm,energy",
            comments="",
        )


class _Observables:
    """Fused expectation values along a run, in the slice frame.

    With ``psi = q f`` and ``g`` likewise, ``Re inner(psi, phi) = cell *
    Re vdot(f, g)``, and ``J`` is ``i``.  The covariant gradients are shared
    between the velocity and force rows.  Agrees with the generic
    operator-based expectations (see the unit tests) but runs far faster on
    large lattices.
    """

    def __init__(self, spec: LatticeSpec, mass: float, with_force: bool,
                 frame: _SliceFrame | None = None):
        self.spec = spec
        self.mass = mass
        self.with_force = with_force
        self.frame = _SliceFrame(spec) if frame is None else frame
        self.cell = spec.cell_volume
        pts = spec.points()
        self.coords = [pts[..., i].ravel() for i in range(3)]
        self.bvals = [geometry.bfield(pts)[..., k].ravel() for k in range(3)]
        self.grad_mats = build_gradient_matrices(spec)
        self.h_mat = build_hamiltonian_matrix(spec, mass)

    def row(self, psi: LatticeField):
        f = self.frame.cols(psi)
        dens = np.sum(f.real**2 + f.imag**2, axis=-1)
        nsq = float(dens.sum() * self.cell)
        scale = self.cell / (self.mass * nsq)
        pos = [float((c * dens).sum() * self.cell / nsq) for c in self.coords]
        grads = [g @ f for g in self.grad_mats]
        # <-(J/m) grad_i> = Re vdot(f, -i g f) cell / m = Im vdot(f, g f) cell / m
        vel = [float(np.vdot(f, g).imag * scale) for g in grads]
        en = float(np.vdot(f, self.h_mat @ f).real * self.cell / nsq)
        frc = None
        if self.with_force:
            # v_j and B_k are hermitian, so <v_j B_k + B_k v_j> = 2 Re<B_k psi, v_j psi>
            t = np.zeros((3, 3))
            for kk in range(3):
                bf = self.bvals[kk][:, None] * f
                for jj in range(3):
                    if jj != kk:
                        t[jj, kk] = 2.0 * np.vdot(bf, grads[jj]).imag * scale
            # acceleration law: eps_ijk (v_j B_k + B_k v_j) / 2m
            frc = [0.5 / self.mass * (t[(i + 1) % 3, (i + 2) % 3] - t[(i + 2) % 3, (i + 1) % 3])
                   for i in range(3)]
        return pos, vel, en, frc


def evolve(cfg: EvolutionConfig, psi0: LatticeField | None = None):
    """Run the configured packet; returns ``(Trajectory, final field)``."""
    spec = cfg.lattice
    if psi0 is None:
        psi0 = gaussian_packet(spec, cfg.center, cfg.sigma, cfg.kick, cfg.omega)
    evolver = CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
    # one frame for both: each step's output is converted once
    obs = _Observables(spec, cfg.mass, cfg.record_force, evolver.frame)

    times, pos, vel, nrm, en, frc = [], [], [], [], [], []

    def record(t, psi):
        p, v, e, f = obs.row(psi)
        times.append(t)
        pos.append(p)
        vel.append(v)
        nrm.append(hilbert.norm(psi))
        en.append(e)
        if f is not None:
            frc.append(f)

    psi = psi0
    record(0.0, psi)
    for k in range(1, cfg.steps + 1):
        psi = evolver.step(psi)
        record(k * cfg.dt, psi)

    traj = Trajectory(
        times=np.asarray(times),
        position=np.asarray(pos),
        velocity=np.asarray(vel),
        norm=np.asarray(nrm),
        energy=np.asarray(en),
        force=np.asarray(frc) if frc else None,
    )
    return traj, psi


def ehrenfest(traj: Trajectory, tol_velocity: float = 0.01,
              tol_force: float = 0.05) -> Report:
    """Compare trajectory derivatives with the observable expectations.

    velocity law:  d<X>/dt (central difference of the series) against the
                   recorded ``<-(J/m) grad>``, relative to the velocity scale;
    force law:     d^2<X>/dt^2 against the recorded symmetrized magnetic
                   force, relative to the force scale (skipped when the run
                   did not record forces).

    Deviations are evaluated on interior samples only.
    """
    t = traj.times
    if len(t) < 3:
        raise ValueError("ehrenfest needs at least three recorded samples")
    dt = float(t[1] - t[0])
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError("ehrenfest expects uniformly spaced samples")

    rep = Report(suite="ehrenfest", seed=0, n_samples=len(t))

    dxdt = (traj.position[2:] - traj.position[:-2]) / (2.0 * dt)
    vmid = traj.velocity[1:-1]
    vscale = float(np.abs(traj.velocity).max())
    rep.checks.append(check_from_devs(
        "velocity-identity", "d<X>/dt = <-(J/m) grad>",
        np.abs(dxdt - vmid) / max(vscale, 1e-30), tol_velocity))

    if traj.force is not None and len(t) >= 5:
        d2 = (traj.position[2:] - 2.0 * traj.position[1:-1] + traj.position[:-2]) / dt**2
        fmid = traj.force[1:-1]
        fscale = float(np.abs(traj.force).max())
        rep.checks.append(check_from_devs(
            "force-identity", "d2<X>/dt2 = <eps (v B + B v)> / 2m",
            np.abs(d2 - fmid) / max(fscale, 1e-30), tol_force))
    return rep


def free_flight_config(n: int = 36, box: float = 7.2, dt: float = 0.1,
                       steps: int = 60) -> EvolutionConfig:
    """Packet coasting far from the monopole: ballistic reference run."""
    return EvolutionConfig(
        lattice=LatticeSpec(n=n, box=box),
        mass=1.0,
        dt=dt,
        steps=steps,
        center=(-2.5, 2.5, 2.5),
        sigma=1.0,
        kick=(0.5, 0.0, 0.0),
        record_force=False,
    )


def monopole_flyby_config(n: int = 48, box: float = 6.0, dt: float = 0.02,
                          steps: int = 60) -> EvolutionConfig:
    """Kicked packet passing the monopole at a finite impact parameter.

    Sized so the run stays clean on all three fronts that can contaminate
    expectation values: the packet tail at the monopole core (impact
    parameter ~3.6 sigma), the Dirichlet walls under spreading (the heavier
    mass slows dispersion; margins stay above 4 sigma(t)), and the stencil
    resolution (sigma ~ 2.8 h).
    """
    return EvolutionConfig(
        lattice=LatticeSpec(n=n, box=box),
        mass=2.0,
        dt=dt,
        steps=steps,
        center=(-0.72, 2.5, 0.0),
        sigma=0.7,
        kick=(2.4, 0.0, 0.0),
    )
