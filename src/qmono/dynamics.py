"""Unitary wavepacket evolution and the Ehrenfest identities.

The continuum evolution is ``psi(t) = exp(-J H t) psi(0)``.  On the lattice
one Cayley step advances by

    psi  <-  (I + (dt/2) J H)^(-1) (I - (dt/2) J H) psi.

With the transported-hop Hamiltonian, ``H`` commutes with ``J`` exactly on
the lattice, so ``J H`` is exactly anti-hermitian and the Cayley step
preserves the norm and the complex slice to solver tolerance.  The inner
solve runs conjugate gradients on the normal equations of the real-linear
system.

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
from .operators import _hop_links  # noqa: F401  (alias checked by perfbench's tracer test)
from .report import Report, check_from_devs

_AXES = np.eye(3)


# ---------------------------------------------------------------------------
# sparse matrices of the link operators (fields flatten C-order, component
# index fastest; see operators.link_matrix)

def build_hamiltonian_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """Sparse matrix of ``operators.hamiltonian``."""
    return ops.link_matrix(spec, ops.hamiltonian(spec, mass).terms)


def build_gradient_matrices(spec: LatticeSpec) -> list:
    """Sparse matrices of ``operators.covderiv`` along the axes.

    The Hamiltonian's position commutator is exactly ``-(1/m)`` times these.
    """
    return [ops.link_matrix(spec, ops.covderiv(spec, e).terms) for e in _AXES]


def build_generator_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """Sparse matrix of the step generator ``J H``.

    Left multiplication is a homomorphism, ``L(J) L(w) = L(J w)``, so ``J H``
    has the Hamiltonian's links premultiplied by ``dirq``.  The
    transported-hop Hamiltonian commutes with ``J`` exactly, so ``J H`` is
    exactly antisymmetric (to rounding) -- which is what the Cayley step
    needs for norm and slice preservation.
    """
    jvals = geometry.dirq(spec.points())
    terms = [(m, quat.qmul(jvals, q)) for m, q in ops.hamiltonian(spec, mass).terms]
    return ops.link_matrix(spec, terms)


def slice_frame(points, omega) -> np.ndarray:
    """Unit quaternion field q(x) with ``dirq(x) q(x) = q(x) omega``.

    The half-angle rotation aligning the slice axis with the radial
    direction; singular only on the ray opposite to ``omega`` (which a
    cell-centered lattice never samples).
    """
    x = np.asarray(points, dtype=float)
    w = quat.vector_part(np.asarray(omega, dtype=float))
    nx = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(nx == 0.0):
        raise geometry.DomainError("slice_frame undefined at the origin")
    xhat = x / nx[..., None]
    c = np.sum(xhat * w, axis=-1)
    out = np.empty(x.shape[:-1] + (4,))
    out[..., 0] = np.sqrt((1.0 + c) / 2.0)
    out[..., 1:] = np.cross(w, xhat) / np.sqrt(2.0 * (1.0 + c))[..., None]
    return out


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
    frame = slice_frame(pts, w)
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
    record_every: int = 1
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

    Solves ``(I + M) psi' = (I - M) psi`` each step, ``M = (dt/2) J H``
    held as a precomputed sparse matrix; conjugate gradients run on the
    normal equations ``(I - M^2)``, symmetric positive definite because
    ``M`` is antisymmetric.
    """

    def __init__(self, spec: LatticeSpec, mass: float, dt: float,
                 solver_rtol: float = 1e-13):
        self.spec = spec
        self.mass = mass
        self.dt = dt
        self.solver_rtol = solver_rtol
        self._m = None
        self._prev = None
        if dt != 0.0:
            self._m = (0.5 * dt) * build_generator_matrix(spec, mass)
            n4 = 4 * spec.n**3
            self._linop = LinearOperator((n4, n4), matvec=self._normal_matvec, dtype=float)

    def _normal_matvec(self, flat: np.ndarray) -> np.ndarray:
        return flat - self._m @ (self._m @ flat)

    def step(self, psi: LatticeField) -> LatticeField:
        if psi.spec != self.spec:
            raise ValueError("field lattice does not match the evolver")
        if self.dt == 0.0:
            return psi.copy()
        v = psi.values.ravel()
        b = v - self._m @ v
        rhs = b - self._m @ b
        # warm start: linear extrapolation from the previous step when available
        x0 = (2.0 * v - self._prev) if self._prev is not None else b
        sol, info = cg(self._linop, rhs, x0=x0,
                       rtol=self.solver_rtol, atol=0.0, maxiter=500)
        if info != 0:
            res = np.linalg.norm(self._normal_matvec(sol) - rhs)
            raise RuntimeError(f"Cayley inner solve did not converge (info={info}, residual={res:.3e})")
        self._prev = v
        return LatticeField(self.spec, sol.reshape(psi.values.shape))


def step(psi: LatticeField, cfg: EvolutionConfig) -> LatticeField:
    """One Cayley step of ``psi`` under ``cfg`` (convenience wrapper)."""
    return CayleyEvolver(cfg.lattice, cfg.mass, cfg.dt, cfg.solver_rtol).step(psi)


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
    """Fused expectation values along a run.

    Uses ``Re inner(a, b) = cell * sum(a * b)`` (componentwise) and shares
    the covariant gradients between the velocity and force rows; agrees
    with the generic operator-based expectations (see the unit tests) but
    runs an order of magnitude faster on large lattices.
    """

    def __init__(self, spec: LatticeSpec, mass: float, with_force: bool):
        self.spec = spec
        self.mass = mass
        self.with_force = with_force
        self.cell = spec.cell_volume
        pts = spec.points()
        self.coords = [pts[..., i].ravel() for i in range(3)]
        self.jvals = geometry.dirq(pts)
        self.bvals = [geometry.bfield(pts)[..., k].ravel() for k in range(3)]
        self.grad_mats = build_gradient_matrices(spec)
        self.h_mat = build_hamiltonian_matrix(spec, mass)

    def row(self, psi: LatticeField):
        v = psi.values
        flat = v.reshape(-1, 4)
        dens = np.sum(flat * flat, axis=-1)
        nsq = float(dens.sum() * self.cell)
        pos = [float((c * dens).sum() * self.cell / nsq) for c in self.coords]
        jpsi = quat.qmul(self.jvals, v).reshape(-1)
        grads = [g @ v.ravel() for g in self.grad_mats]
        # <-(J/m) grad_i>: Re<psi, J g> = -cell sum(jpsi * g)
        vel = [float(np.dot(jpsi, g) * self.cell / (self.mass * nsq)) for g in grads]
        en = float(np.dot(v.ravel(), self.h_mat @ v.ravel()) * self.cell / nsq)
        frc = None
        if self.with_force:
            t = np.zeros((3, 3))
            for jj in range(3):
                for kk in range(3):
                    if jj == kk:
                        continue
                    bpsi = (self.bvals[kk][:, None] * flat).ravel()
                    term_vb = np.dot(jpsi, self.grad_mats[jj] @ bpsi) * self.cell
                    term_bv = np.dot(np.repeat(self.bvals[kk], 4) * jpsi, grads[jj]) * self.cell
                    t[jj, kk] = (term_vb + term_bv) / (self.mass * nsq)
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
    obs = _Observables(spec, cfg.mass, cfg.record_force)

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
        if k % cfg.record_every == 0 or k == cfg.steps:
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
