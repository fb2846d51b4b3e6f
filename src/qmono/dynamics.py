"""Unitary wavepacket evolution and the Ehrenfest identities.

The continuum evolution is ``psi(t) = exp(-J H t) psi(0)``.  On the lattice
one Cayley step advances by

    psi  <-  (I + (dt/2) J H)^(-1) (I - (dt/2) J H) psi.

The transported-hop Hamiltonian commutes with ``J`` exactly, so the
evolution is a complex problem, and it is solved as one.  In the gauge
``q(x) = geometry.slice_frame(x, e3)`` every transport link ``q(x)* plus(x)
q(x+h)`` lies in ``span{1, e3}``: it is a U(1) phase.  A field ``psi =
q (f1 + f2 e1)`` is held as ``(n^3, k)`` complex columns, k = 1 or 2; ``H``
is the hermitian complex 7-point matrix of ``operators.hamiltonian`` (a
``FrameOp``) acting on every column alike, and ``J`` becomes
multiplication by ``i``.  A field in the slice ``{J psi = psi e3}`` is
``q f1``: ``f2`` vanishes, and ``evolve`` steps and observes its packet
as the one column ``f1``, while an arbitrary field keeps both.  The frame
is singular only on the ray ``x = y = 0, z < 0``, which plays the role of
the Dirac string (Wu and Yang, Phys. Rev. D 12, 3845, 1975) and which a
cell-centered grid never samples.  The Cayley step solves ``(I + M) f' =
(I - M) f`` in this frame, ``M = (dt/2) i Q* H Q`` anti-hermitian, by the
generalized conjugate gradients of ``cg``: one matvec per iteration.

A run never leaves the frame, which ``operators`` owns: a step reads
``operators._frame_cols`` and returns an ``operators._FrameField``, whose
quaternion values are formed only when first read.  ``evolve``'s norm
column comes from the frame density that each observables row sums, so it
converts at most its final field, on demand.  One Hamiltonian matrix serves both
the step generator and the observables.  A row and the next step only read
the same field, so where a second core exists ``evolve`` computes each row
on one worker thread while the calling thread takes the next step; on one
core the rows run in the calling thread, in the same loop.  Either way
every row and step does the same arithmetic, so a run is bit-identical.

Expectation values drive the Ehrenfest checks: the velocity observable is
``-(J/m) grad_i`` and the acceleration matches the symmetrized magnetic
force ``eps_ijk (v_j B_k + B_k v_j) / (2m)``.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from . import geometry, hilbert, operators as ops, quat
from .hilbert import LatticeField, LatticeSpec, _cores
from .operators import _hop_links  # noqa: F401  (perfbench/test_perfbench.py traces this alias)
from .report import Report, check_from_devs


def build_hamiltonian_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """``Q* H Q``: the matrix of ``operators.hamiltonian`` in the slice frame."""
    return ops.hamiltonian(spec, mass).matrix


def build_gradient_matrices(spec: LatticeSpec) -> list:
    """``Q* grad_i Q``: the matrices of ``operators.covderiv`` along each axis."""
    return [ops.covderiv(spec, axis).matrix for axis in range(3)]


def build_generator_matrix(spec: LatticeSpec, mass: float) -> sparse.csr_matrix:
    """``i Q* H Q``: the step generator ``J H`` in the slice frame, where
    ``J`` is multiplication by ``i``; exactly anti-hermitian."""
    return 1j * ops.hamiltonian(spec, mass).matrix


def _packet_envelope_phase(spec: LatticeSpec, center, sigma: float, kick):
    """The envelope ``exp(-|x - center|^2 / (4 sigma^2))`` and the kick
    angle ``kick . x`` of a Gaussian packet at every site."""
    pts = spec.points()
    env = np.exp(-np.sum((pts - np.asarray(center, dtype=float)) ** 2, axis=-1) / (4.0 * sigma**2))
    return env, np.sum(pts * np.asarray(kick, dtype=float), axis=-1)


def gaussian_packet(spec: LatticeSpec, center, sigma: float, kick,
                    omega=tuple(quat.E3)) -> LatticeField:
    """Normalized Gaussian packet lying exactly in the slice of ``omega``.

    Envelope ``exp(-|x - center|^2 / (4 sigma^2))`` (position spread sigma),
    carried on the slice frame and kicked by the right slice phase
    ``qexp(omega (kick . x))``.
    """
    w = np.asarray(omega, dtype=float)
    env, angle = _packet_envelope_phase(spec, center, sigma, kick)
    frame = geometry.slice_frame(spec.points(), w)
    phase = quat.qexp(w * angle[..., None])
    vals = env[..., None] * quat.qmul(frame, phase)
    psi = LatticeField(spec, vals)
    return LatticeField(spec, vals / hilbert.norm(psi))


@dataclass
class EvolutionConfig:
    """Packet, lattice and integrator parameters for one run.

    The packet lies in the slice of ``omega = e3``, the evolver's frame, and
    is solved to ``solver_rtol``: class constants, not fields
    (``perfbench/sweep.py`` reads both to build the same run).
    """

    omega: ClassVar[tuple] = tuple(quat.E3)
    solver_rtol: ClassVar[float] = 1e-13

    lattice: LatticeSpec
    mass: float = 1.0
    dt: float = 0.02
    steps: int = 100
    center: tuple = (-2.0, 1.5, 0.0)
    sigma: float = 0.8
    kick: tuple = (0.0, 0.0, 0.0)
    record_force: bool = True

    def __post_init__(self):
        if not 0.0 < self.mass < np.inf:
            raise ValueError("mass must be positive and finite")
        if not 0.0 <= self.dt < np.inf:
            raise ValueError("dt must be nonnegative and finite")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.dt == 0.0 and self.steps > 0:
            # every step would be the identity, with no time axis to check
            raise ValueError("dt must be positive when steps > 0")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        for name in ("center", "kick"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be three finite numbers")
        # the packet must sit at least 3 sigma from the monopole and from
        # every wall, or its expectation values are not trustworthy
        center = np.asarray(self.center, dtype=float)
        if np.linalg.norm(center) < 3.0 * self.sigma:
            raise ValueError("packet center closer than 3 sigma to the monopole")
        if self.lattice.box - np.abs(center).max() < 3.0 * self.sigma:
            raise ValueError("packet center closer than 3 sigma to the box walls")


def _blas():
    """scipy's BLAS wrappers, imported on first use: only the Cayley solver
    needs them, so ``scipy.linalg`` (about 8 MiB resident) loads with every
    ``CayleyEvolver``, never with a verify suite."""
    from scipy.linalg import blas
    return blas


def cg(a, b, x0=None, rtol=1e-5, maxiter=500, callback=None):
    """Solve ``(I + a) x = b`` for an anti-hermitian ``a`` by the generalized
    conjugate gradients of Concus, Golub and Widlund (Widlund, SIAM J.
    Numer. Anal. 15, 801, 1978); scipy's ``cg`` calling convention.

    Lanczos on ``a`` gives orthonormal ``v_1, v_2, ...`` and a tridiagonal
    ``T_k`` with diagonal ``i alpha_j``, ``beta_j`` below it and
    ``-beta_j`` above.  The Galerkin iterate ``x_k = x_0 + V_k (I +
    T_k)^-1 beta_0 e_1`` follows the LU factors of ``I + T_k``, taken
    without pivoting: each pivot ``eta_k = 1 + i alpha_k + beta_{k-1}^2 /
    eta_{k-1}`` has real part at least 1, so the recurrence cannot break
    down.  The residual is ``-beta_k (z_k / eta_k) v_{k+1}``, so its norm
    comes without a matvec, and one product with ``a`` is made per
    iteration.  ``b`` may be ``(n, k)`` columns, solved as one vector;
    the start ``x0`` is zero when not given.

    Returns ``(x, info)``: ``info`` is 0 once the residual is at most
    ``rtol |b|``, else the ``maxiter`` iterations run.
    ``callback(x)`` is called after every iteration.
    """
    blas = _blas()
    b = np.ascontiguousarray(b, dtype=complex)
    bnorm = blas.dznrm2(b.ravel())
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    tol = rtol * bnorm
    x = (np.zeros_like(b) if x0 is None
         else np.array(x0, dtype=complex, order="C").reshape(b.shape))
    v = b - x - a @ x
    xf, vf = x.ravel(), v.ravel()
    # z_k: the last entry of L_k^-1 beta_0 e_1, z_1 = beta_0 = |b - x0 - a x0|
    z = blas.dznrm2(vf)
    if z <= tol:
        return x, 0
    blas.zdscal(1.0 / z, vf, overwrite_x=True)
    # p_k: the last column of V_k U_k^-1; v_0 = p_0 = 0, so beta and ell start at 0
    prev, pf = np.zeros_like(vf), np.zeros_like(vf)
    beta = ell = 0.0
    for _ in range(maxiter):
        w = np.ascontiguousarray(a @ v)
        wf = w.ravel()
        blas.zaxpy(prev, wf, a=beta)
        # v* a v is imaginary for anti-hermitian a: keep only that part
        alpha = blas.zdotc(vf, wf).imag
        blas.zaxpy(vf, wf, a=-1j * alpha)
        eta = 1.0 + 1j * alpha + beta * ell
        blas.zscal(beta / eta, pf)
        blas.zaxpy(vf, pf, a=1.0 / eta)
        blas.zaxpy(pf, xf, a=z)
        beta = blas.dznrm2(wf)
        if callback is not None:
            callback(x)
        if beta * abs(z / eta) <= tol:
            return x, 0
        blas.zdscal(1.0 / beta, wf, overwrite_x=True)
        ell = beta / eta
        z *= -ell
        prev, v, vf = vf, w, wf
    return x, maxiter


class CayleyEvolver:
    """Norm-preserving time stepper for the monopole Hamiltonian.

    Solves ``(I + M) f' = (I - M) f`` each step, from the ``(n^3, k)``
    columns ``operators._frame_cols(psi)`` to an ``operators._FrameField``;
    ``M = (dt/2) i Q* H Q`` is held as a precomputed sparse matrix on the index
    arrays of the Hamiltonian's matrix ``h_mat``.  ``M`` is anti-hermitian, so
    ``cg`` solves the system itself by generalized conjugate gradients, one
    matvec per iteration, from the warm start ``2 f - f_prev``.  ``M`` acts
    on each column alone, so a zero ``f2`` stays zero and a one-column
    field is stepped as one column.  ``cg_iters`` records the iteration
    count of every step: one matvec each, plus one for the start residual.
    At ``dt = 0``, ``M`` is zero: a step returns its input after 0 iterations.
    """

    def __init__(self, spec: LatticeSpec, mass: float, dt: float,
                 solver_rtol: float = EvolutionConfig.solver_rtol):
        self.spec = spec
        self.mass = mass
        self.solver_rtol = solver_rtol
        self.cg_iters: list[int] = []
        self.h_mat = h = build_hamiltonian_matrix(spec, mass)
        self._prev = None
        _blas()  # the solver's BLAS loads with the set-up, not in the first step
        # (dt/2) times build_generator_matrix's i H, bit for bit, on H's own index arrays
        self._m = sparse.csr_matrix(((0.5 * dt) * (1j * h.data), h.indices, h.indptr),
                                    shape=h.shape)

    def step(self, psi: LatticeField) -> LatticeField:
        if psi.spec != self.spec:
            raise ValueError("field lattice does not match the evolver")
        v = ops._frame_cols(psi)
        b = v - self._m @ v
        # warm start: linear extrapolation from the previous step of the same shape
        prev = self._prev
        x0 = (2.0 * v - prev) if prev is not None and prev.shape == v.shape else b
        self.cg_iters.append(0)

        def count(_):
            self.cg_iters[-1] += 1

        sol, info = cg(self._m, b, x0=x0, rtol=self.solver_rtol, maxiter=500, callback=count)
        if info != 0:
            res = np.linalg.norm(sol + self._m @ sol - b)
            raise RuntimeError(f"Cayley inner solve did not converge (info={info}, residual={res:.3e})")
        self._prev = v
        return ops._FrameField(self.spec, sol)


@dataclass
class Trajectory:
    """Expectation-value time series recorded along a run, and the ``cg``
    iterations of each step, one matvec each (not written to the CSV)."""

    times: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    force: np.ndarray | None = None
    cg_iters: np.ndarray | None = None

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
    """Fused expectation values along a run, on ``operators._frame_cols``.

    With ``psi = q f`` and ``g`` likewise, ``Re inner(psi, phi) = cell *
    Re vdot(f, g)``, and ``J`` is ``i``.  The evolver's Hamiltonian matrix
    is shared, and so is each covariant gradient ``G_j f`` between the
    velocity and the force terms of axis ``j``; the force terms form each
    ``B_k f`` afresh.  Agrees with the generic operator-based expectations
    (see the unit tests) but runs far faster on large lattices.  A row only
    reads its field and these read-only arrays, so it may run on another
    thread than the steps.
    """

    def __init__(self, evolver: CayleyEvolver, with_force: bool):
        self.spec = spec = evolver.spec
        self.mass = evolver.mass
        self.with_force = with_force
        self.h_mat = evolver.h_mat
        self.cell = spec.cell_volume
        pts = spec.points()
        # column views of the cached grid; each product below is formed contiguous
        self.coords = [pts.reshape(-1, 3)[:, i] for i in range(3)]
        self.grad_mats = build_gradient_matrices(spec)
        if with_force:
            b = geometry.bfield(pts)
            self.bvals = [b[..., k].ravel() for k in range(3)]

    def row(self, psi: LatticeField):
        """``(position, velocity, norm, energy, force)`` of ``psi``, read
        from its frame columns; ``force`` is None unless recorded.

        One gradient grid ``G_j f`` is live at a time: the velocity and the
        force terms of axis ``j`` are read from it before the next is formed.
        """
        if psi.spec != self.spec:
            raise ValueError("field lattice does not match the evolver")
        f = ops._frame_cols(psi)
        dens = np.sum(f.real**2 + f.imag**2, axis=-1)
        nsq = float(dens.sum() * self.cell)
        scale = self.cell / (self.mass * nsq)
        pos = [float((c * dens).sum() * self.cell / nsq) for c in self.coords]
        en = float(np.vdot(f, self.h_mat @ f).real * self.cell / nsq)
        vel = []
        t = np.zeros((3, 3))
        for jj, grad in enumerate(self.grad_mats):
            g = grad @ f
            # <-(J/m) grad_j> = Re vdot(f, -i g f) cell / m = Im vdot(f, g f) cell / m
            vel.append(float(np.vdot(f, g).imag * scale))
            if self.with_force:
                # v_j and B_k are hermitian, so <v_j B_k + B_k v_j> = 2 Re<B_k psi, v_j psi>
                for kk in range(3):
                    if kk != jj:
                        t[jj, kk] = 2.0 * np.vdot(self.bvals[kk][:, None] * f, g).imag * scale
        frc = None
        if self.with_force:
            # acceleration law: eps_ijk (v_j B_k + B_k v_j) / 2m
            frc = [0.5 / self.mass * (t[(i + 1) % 3, (i + 2) % 3] - t[(i + 2) % 3, (i + 1) % 3])
                   for i in range(3)]
        return pos, vel, float(np.sqrt(nsq)), en, frc


class _CallingThread(Executor):
    """An executor that runs each submitted call at once, in the calling
    thread, and returns it as a finished future."""

    def submit(self, fn, *args) -> Future:
        done = Future()
        done.set_result(fn(*args))
        return done


def evolve(cfg: EvolutionConfig):
    """Run the configured packet; returns ``(Trajectory, final field)``.

    The packet is the ``operators._FrameField`` of its one slice-frame
    column, stepped and observed as such: no step forms quaternion values,
    the norm column is the square root of the frame density that each row
    sums, and the final field forms its values only when they are read.  One
    Hamiltonian matrix serves the evolver and the observables.

    Where ``hilbert._cores`` counts more than one core, each observables row
    runs on one worker thread beside the steps: row 0 is submitted before
    step 1, row k right after step k, and the rows are collected in order
    after the last step.  On one core they run in the calling thread, in
    the same loop.  The worker is shut down before ``evolve`` returns or
    raises, so a step's ``RuntimeError`` leaves no thread behind.
    """
    spec = cfg.lattice
    # the packet (``gaussian_packet`` in the e3 slice) is, in the evolver's
    # frame, the one column f1 = env exp(i kick . x), stepped and observed as
    # such; built first, so that a lattice on which it vanishes is refused
    # before any matrix is built
    env, angle = _packet_envelope_phase(spec, cfg.center, cfg.sigma, cfg.kick)
    f1 = (env * np.exp(1j * angle)).reshape(-1, 1)
    f1_norm = np.linalg.norm(f1)
    if f1_norm == 0.0:
        raise ValueError(f"the packet underflows to norm 0 on the lattice n={spec.n}, "
                         f"box={spec.box}; take a smaller box")
    psi = ops._FrameField(spec, f1 / (f1_norm * np.sqrt(spec.cell_volume)))
    del env, angle, f1  # not held while the matrices are assembled (peak RSS)
    evolver = CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
    obs = _Observables(evolver, cfg.record_force)

    with (ThreadPoolExecutor(1) if _cores() > 1 else _CallingThread()) as pool:
        times, rows = [0.0], [pool.submit(obs.row, psi)]
        for k in range(1, cfg.steps + 1):
            psi = evolver.step(psi)
            times.append(k * cfg.dt)
            rows.append(pool.submit(obs.row, psi))
        pos, vel, nrm, en, frc = zip(*(row.result() for row in rows))

    traj = Trajectory(
        times=np.asarray(times),
        position=np.asarray(pos),
        velocity=np.asarray(vel),
        norm=np.asarray(nrm),
        energy=np.asarray(en),
        force=np.asarray(frc) if cfg.record_force else None,
        cg_iters=np.asarray(evolver.cg_iters),
    )
    return traj, psi


def ehrenfest(traj: Trajectory) -> Report:
    """Compare trajectory derivatives with the observable expectations.

    velocity law:  d<X>/dt (central difference of the series) against the
                   recorded ``<-(J/m) grad>``, relative to the velocity scale;
    force law:     d^2<X>/dt^2 against the recorded symmetrized magnetic
                   force, relative to the force scale (skipped when the run
                   did not record forces or has fewer than five samples).

    Deviations are evaluated on interior samples only, within 1% and 5%.
    """
    t = traj.times
    if len(t) < 3:
        raise ValueError("ehrenfest needs at least three recorded samples")
    dt = float(t[1] - t[0])
    if not dt > 0.0:
        raise ValueError("ehrenfest needs a positive sample spacing")
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError("ehrenfest expects uniformly spaced samples")

    rep = Report(suite="ehrenfest", seed=0, n_samples=len(t))

    dxdt = (traj.position[2:] - traj.position[:-2]) / (2.0 * dt)
    vmid = traj.velocity[1:-1]
    vscale = float(np.abs(traj.velocity).max())
    rep.checks.append(check_from_devs(
        "velocity-identity", "d<X>/dt = <-(J/m) grad>",
        np.abs(dxdt - vmid) / max(vscale, 1e-30), 0.01))

    if traj.force is not None and len(t) >= 5:
        d2 = (traj.position[2:] - 2.0 * traj.position[1:-1] + traj.position[:-2]) / dt**2
        fmid = traj.force[1:-1]
        fscale = float(np.abs(traj.force).max())
        rep.checks.append(check_from_devs(
            "force-identity", "d2<X>/dt2 = <eps (v B + B v)> / 2m",
            np.abs(d2 - fmid) / max(fscale, 1e-30), 0.05))
    return rep


def free_flight_config(n: int = 36, dt: float = 0.1, steps: int = 60) -> EvolutionConfig:
    """Packet coasting far from the monopole: ballistic reference run."""
    return EvolutionConfig(
        lattice=LatticeSpec(n=n, box=7.2),
        mass=1.0,
        dt=dt,
        steps=steps,
        center=(-2.5, 2.5, 2.5),
        sigma=1.0,
        kick=(0.5, 0.0, 0.0),
        record_force=False,
    )


def monopole_flyby_config(n: int = 48, dt: float = 0.02, steps: int = 60) -> EvolutionConfig:
    """Kicked packet passing the monopole at a finite impact parameter.

    Sized so the run stays clean on all three fronts that can contaminate
    expectation values: the packet tail at the monopole core (impact
    parameter ~3.6 sigma), the Dirichlet walls under spreading (the heavier
    mass slows dispersion; margins stay above 4 sigma(t)), and the stencil
    resolution (sigma ~ 2.8 h).
    """
    return EvolutionConfig(
        lattice=LatticeSpec(n=n, box=6.0),
        mass=2.0,
        dt=dt,
        steps=steps,
        center=(-0.72, 2.5, 0.0),
        sigma=0.7,
        kick=(2.4, 0.0, 0.0),
    )
