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
the step generator and the observables, which hold it.  ``evolve`` runs its
packet and its rows on ``runner.beside``'s one thread beside the calling
thread: the worker builds the packet while the calling thread builds the
evolver (the slice gauge, H and the step matrix) and then the
observables, then computes each row while the calling thread takes the
next step (a row and a step only read the same field).  Every matrix, row
and step does the same arithmetic as on one thread, so a run is
bit-identical.

H and the step matrix are ``operators.CSRMatrix`` objects, multiplied by
scipy's compiled CSR kernels; the covariant gradients are the
``operators.LinkStencil`` products of the gauge's cached links, with no
matrix assembled; and ``cg`` calls scipy's compiled BLAS wrappers
(``_blas``); neither ``scipy.sparse`` nor ``scipy.linalg`` is imported.

Expectation values drive the Ehrenfest checks: the velocity observable is
``-(J/m) grad_i`` and the acceleration matches the symmetrized magnetic
force ``eps_ijk (v_j B_k + B_k v_j) / (2m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import geometry, hilbert, operators as ops, quat, runner
from .hilbert import LatticeField, LatticeSpec
from .operators import _hop_links  # noqa: F401  (perfbench/test_perfbench.py traces this alias)
from .report import Report, check_from_devs


def build_hamiltonian_matrix(spec: LatticeSpec, mass: float) -> ops.CSRMatrix:
    """``Q* H Q``: the matrix of ``operators.hamiltonian`` in the slice frame."""
    return ops.hamiltonian(spec, mass).matrix


def build_gradient_matrices(spec: LatticeSpec) -> list:
    """``Q* grad_i Q`` along each axis: the ``.matrix`` of each
    ``operators.covderiv``, a ``LinkStencil`` that applies the slice
    gauge's cached links by ``@`` (of these, only the gauge is built)."""
    return [ops.covderiv(spec, axis).matrix for axis in range(3)]


def build_generator_matrix(spec: LatticeSpec, mass: float) -> ops.CSRMatrix:
    """``i Q* H Q``: the step generator ``J H`` in the slice frame, where
    ``J`` is multiplication by ``i``; exactly anti-hermitian."""
    h = ops.hamiltonian(spec, mass).matrix
    return ops.CSRMatrix(1j * h.data, h.indices, h.indptr, h.shape)


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


def _check_dt_square(dt: float) -> None:
    """ValueError where the square of the positive step ``dt``, which
    ``ehrenfest`` divides by, is below the smallest normal float."""
    if dt * dt < np.finfo(float).tiny:
        raise ValueError(f"dt {dt!r} is too small: ehrenfest divides by dt^2, "
                         f"which must be a normal float (dt at least about 1.49e-154)")


@dataclass
class EvolutionConfig:
    """Packet, lattice and integrator parameters for one run.

    The packet lies in the slice of ``omega = e3``, the evolver's frame, and
    is solved to ``solver_rtol``: class constants, not fields
    (``perfbench/sweep.py`` reads both to build the same run).

    The step matrix ``M = (dt/2) i H`` has norm up to ``3 dt / (m h^2)``, so
    that scale must be at most ``max_step_scale = 1e15``.  Past it the
    identity in ``(I + M) x`` falls below the rounding of ``M x`` (``3e15``
    times the float epsilon is about 0.7), and a step is no longer a
    Cayley step in float arithmetic.  The CG count of a first step grows
    with the scale: on the flyby preset's lattice it is 11 at 0.16 (the
    preset), 110 at 10 and 240 at 100, then about a dozen more per decade:
    341 at 1e8, 458 at 1e15, the 500-iteration limit at 3e18.  So 1e15 lies
    fifteen decades above both presets (0.16 and 0.625), and a run below it
    (``--mass 1e-8`` on the flyby preset, 3.2e7) converges or fails as a
    run.  A larger scale is refused with a ValueError (the CLI's exit 2).

    A run that records forces must keep its force row finite.  On the
    cell-centred grid no site is nearer the origin than ``sqrt(3) h / 2``,
    so ``|B| <= 2 / (3 h^2)``, and each covariant gradient, a central
    difference of unitary links, has ``||G_j|| <= 1 / h``.  So each
    ``2 Re<B_k psi, v_j psi>`` of ``_Observables.row`` is at most ``4 / (3 m
    h^3)``, and each force component at most ``4 / (3 m^2 h^3)``: the force
    scale is about ``1 / (m^2 h^3)``, and must be at most ``max_force_scale
    = 1e305``, three decades below the largest float, so that the row and
    ``ehrenfest``'s differences of it stay finite.  The flyby preset's scale
    is 16 (2 at n=24), and the free preset records no force.  On the flyby
    preset at n=16, ``--mass 1e-150`` is at 2.4e300 and runs; ``--mass
    1e-160`` (2.4e320) would overflow and is refused with a ValueError.

    ``ehrenfest`` divides differences of the position series by ``dt^2``,
    so a positive ``dt`` must have a square that is a normal float: ``dt``
    at least ``sqrt(tiny)``, about 1.49e-154.  A smaller one is refused
    with a ValueError, where it would give a NaN ``force-identity``.
    """

    omega: ClassVar[tuple] = tuple(quat.E3)
    solver_rtol: ClassVar[float] = 1e-13
    max_step_scale: ClassVar[float] = 1e15
    max_force_scale: ClassVar[float] = 1e305

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
        if 0.0 < self.dt:
            _check_dt_square(self.dt)
        step = self.lattice.step
        if self.dt > self.max_step_scale * (self.mass * step**2):
            raise ValueError(f"the step scale dt / (m h^2) exceeds {self.max_step_scale:g} at "
                             f"mass {self.mass!r}, dt {self.dt!r} and lattice step {step!r}")
        if self.record_force and self.mass * self.mass * step**3 * self.max_force_scale < 1.0:
            raise ValueError(f"the force scale 1 / (m^2 h^3) exceeds {self.max_force_scale:g} "
                             f"at mass {self.mass!r} and lattice step {step!r}")
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
    """scipy's compiled BLAS wrappers ``scipy.linalg._fblas``, loaded alone on
    first use by ``operators._scipy_compiled`` (about 2 ms, no
    ``scipy.linalg`` import): only the Cayley solver needs them, so they
    load with every ``CayleyEvolver``, never with a verify suite.  The
    ``dznrm2``, ``zdscal``, ``zaxpy``, ``zdotc`` and ``zscal`` that ``cg``
    calls are the very functions that ``scipy.linalg.blas`` exports."""
    return ops._scipy_compiled("linalg", "_fblas")


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

    The iterate lives in the start: a complex, C-contiguous, writable
    ``x0`` is overwritten, and the returned ``x`` is a view of it.  Any
    other start (another dtype or layout, or read-only) is copied and left
    as it was given, and a zero ``b`` returns a fresh zero array.  ``b`` is
    never written.

    Returns ``(x, info)``: ``info`` is 0 once the residual is at most
    ``rtol |b|``, -1 as soon as the residual norm is not finite (an
    overflow in ``a x``), else the ``maxiter`` iterations run.
    ``callback(x)`` is called after every iteration.
    """
    blas = _blas()
    b = np.ascontiguousarray(b, dtype=complex)
    bnorm = blas.dznrm2(b.ravel())
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    tol = rtol * bnorm
    x = (np.zeros_like(b) if x0 is None
         else np.require(x0, complex, ("C", "W")).reshape(b.shape))
    v = b - x
    v -= a @ x
    xf, vf = x.ravel(), v.ravel()
    # z_k: the last entry of L_k^-1 beta_0 e_1, z_1 = beta_0 = |b - x0 - a x0|
    z = blas.dznrm2(vf)
    if not np.isfinite(z):
        return x, -1
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
        if not np.isfinite(beta):
            return x, -1
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
    arrays of the Hamiltonian's matrix ``h_mat``, its own data scaled in
    place from ``i`` times H's.  ``M`` is anti-hermitian, so
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
        self.solver_rtol = solver_rtol
        self.cg_iters: list[int] = []
        self.h_mat = h = build_hamiltonian_matrix(spec, mass)
        self._prev = None
        # (dt/2) times build_generator_matrix's i H, bit for bit, scaled in
        # place on H's own index arrays
        data = 1j * h.data
        self._m = ops.CSRMatrix(np.multiply(0.5 * dt, data, out=data), h.indices, h.indptr, h.shape)
        # the solver's BLAS loads with the set-up, on the calling thread, not in the first step
        _blas()

    def step(self, psi: LatticeField) -> LatticeField:
        if psi.spec != self.spec:
            raise ValueError("field lattice does not match the evolver")
        v = ops._frame_cols(psi)
        b = v - self._m @ v
        # warm start: linear extrapolation from the previous step of the same
        # shape, else b; a fresh array either way, since cg iterates in it
        prev = self._prev
        x0 = (2.0 * v - prev) if prev is not None and prev.shape == v.shape else b.copy()
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
    Re vdot(f, g)``, and ``J`` is ``i``.  The observables hold the evolver's
    Hamiltonian matrix ``h_mat`` for the energy, and each covariant
    gradient ``G_j f``, a product of the three link stencils ``grads``
    (``build_gradient_matrices``), is shared between the velocity and the
    force terms of axis ``j``; the force terms form each ``B_k f`` afresh.
    The observables keep no gradient matrix: besides H and the stencils,
    which hold only the cached links, they keep the three ``bvals`` of a
    run with forces.  Agrees with the generic operator-based expectations
    (see the unit tests) but runs far faster on large lattices.  A row
    reads only the stencils, the matrix and the field, so it may run on
    another thread than the steps.
    """

    def __init__(self, spec: LatticeSpec, mass: float, with_force: bool, h_mat: ops.CSRMatrix):
        self.spec = spec
        self.mass = mass
        self.with_force = with_force
        self.h_mat = h_mat
        self.cell = spec.cell_volume
        pts = spec.points()
        # column views of the cached grid; each product below is formed contiguous
        self.coords = [pts.reshape(-1, 3)[:, i] for i in range(3)]
        self.grads = build_gradient_matrices(spec)
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
        for jj, grad in enumerate(self.grads):
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


def _packet_field(cfg: EvolutionConfig) -> ops._FrameField:
    """The run's packet, ``gaussian_packet`` in the e3 slice, held in the
    evolver's frame as the one column ``f1 = env exp(i kick . x)``,
    normalized; ValueError where it underflows to norm 0 on the lattice."""
    spec = cfg.lattice
    env, angle = _packet_envelope_phase(spec, cfg.center, cfg.sigma, cfg.kick)
    f1 = (env * np.exp(1j * angle)).reshape(-1, 1)
    f1_norm = np.linalg.norm(f1)
    if f1_norm == 0.0:
        raise ValueError(f"the packet underflows to norm 0 on the lattice n={spec.n}, "
                         f"box={spec.box}; take a smaller box")
    return ops._FrameField(spec, f1 / (f1_norm * np.sqrt(spec.cell_volume)))


def evolve(cfg: EvolutionConfig):
    """Run the configured packet; returns ``(Trajectory, final field)``.

    The packet is the ``operators._FrameField`` of its one slice-frame
    column, stepped and observed as such: no step forms quaternion values,
    the norm column is the square root of the frame density that each row
    sums, and the final field forms its values only when they are read.  One
    Hamiltonian matrix serves the evolver and the observables.

    The run uses two threads: the calling thread and the run's worker
    (``runner.beside``: one thread beside the caller), which takes its jobs
    in order.  The worker builds the packet while the calling thread builds
    the ``CayleyEvolver`` (the slice gauge, H and the step matrix) and then
    the ``_Observables`` (the gradient stencils and ``bfield``); the calling
    thread then waits for the packet, so a packet that vanishes on the
    lattice is refused (ValueError) once the matrices are built, before any
    step.  The worker then takes row 0, submitted before step 1, and row k,
    submitted right after step k; the rows are collected in order after the
    last step.  The worker is shut down before ``evolve`` returns or raises,
    so a failed step or set-up leaves no thread behind.
    """
    spec = cfg.lattice
    spec.points()  # cached here, before the packet job reads it
    with runner.beside() as pool:
        packet = pool.submit(_packet_field, cfg)
        evolver = CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
        obs = _Observables(spec, cfg.mass, cfg.record_force, evolver.h_mat)
        psi = packet.result()
        times, rows = [0.0], [pool.submit(obs.row, psi)]
        for k in range(1, cfg.steps + 1):
            psi = evolver.step(psi)
            times.append(k * cfg.dt)
            rows.append(pool.submit(obs.row, psi))
        pos, vel, nrm, en, frc = zip(*(r.result() for r in rows))

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
    Fewer than three samples, uneven ones, and a spacing that is not
    positive or whose square is below the smallest normal float (as
    ``EvolutionConfig`` refuses its ``dt``) are a ValueError.
    """
    t = traj.times
    if len(t) < 3:
        raise ValueError("ehrenfest needs at least three recorded samples")
    dt = float(t[1] - t[0])
    if not dt > 0.0:
        raise ValueError("ehrenfest needs a positive sample spacing")
    _check_dt_square(dt)
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
