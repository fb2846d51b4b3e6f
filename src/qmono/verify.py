"""Randomized verification suites behind the CLI.

Each suite draws seeded samples, runs a batch of identity checks at fixed
tolerances, and returns a ``Report``.  Identities fall into three classes:

* algebraic (quaternion algebra, transport unitarity, holonomy = flux
  exponential): tolerances at roundoff scale;
* structural lattice identities (imprimitivity on integer-step shifts,
  multiplier/projection commutation): bit-exact;
* stencil identities (commutators, rotation covariance): O(h^2), verified
  together with their Richardson ratio between steps h and h/2.
"""

from __future__ import annotations

import numpy as np

from . import geometry, hilbert, operators as ops, quat, splitting
from .hilbert import LatticeField, LatticeSpec
from .report import Report, check_from_devs

_AXES = np.eye(3)
_UNIT_STEPS = np.eye(3, dtype=int)


# ---------------------------------------------------------------------------
# samplers

def _unit_quats(rng, m):
    q = rng.standard_normal((m, 4))
    return q / quat.qnorm(q)[:, None]


def _imaginary_units(rng, m):
    v = rng.standard_normal((m, 3))
    return quat.from_vector(v / np.linalg.norm(v, axis=-1)[:, None])


def _positions(rng, m, lo=0.4, hi=3.0):
    out = np.empty((0, 3))
    while len(out) < m:
        x = rng.uniform(-hi, hi, size=(2 * m, 3))
        r = np.linalg.norm(x, axis=-1)
        out = np.vstack([out, x[(r > lo) & (r < hi)]])
    return out[:m]


def _legs_clear(legs):
    """True where every transport leg ``(start, displacement)`` keeps both
    ends farther than 0.3 from the origin and its segment farther than
    0.01."""
    ok = True
    for start, disp in legs:
        end = start + disp
        ok = ok & (np.linalg.norm(start, axis=-1) > 0.3) \
            & (np.linalg.norm(end, axis=-1) > 0.3) \
            & (geometry.segment_origin_distance(start, end) > 1e-2)
    return ok


def _sample_legs(rng, m, family):
    """Rejection sampler: ``m`` draws whose transport legs are all clear.

    ``family = (draw, legs)``: ``draw(rng, k)`` returns k candidates as a
    tuple of arrays, ``legs(*candidates)`` their ``(start, displacement)``
    legs.  Returns the accepted candidates in the order ``draw`` gives.
    """
    draw, legs = family
    chunks = []
    while sum(len(chunk[0]) for chunk in chunks) < m:
        cand = draw(rng, 2 * m)
        ok = _legs_clear(legs(*cand))
        chunks.append([c[ok] for c in cand])
    return tuple(np.concatenate(parts)[:m] for parts in zip(*chunks))


# (x, a): the transport from x to x + a
_TRANSPORT_PAIRS = (
    lambda rng, k: (_positions(rng, k), rng.uniform(-2.0, 2.0, size=(k, 3))),
    lambda x, a: [(x, a)],
)
# (x, a, s, t): the three transports of the cocycle along a
_COCYCLE_SAMPLES = (
    lambda rng, k: (_positions(rng, k), rng.uniform(-1.5, 1.5, size=(k, 3)),
                    rng.uniform(-1.2, 1.2, size=k), rng.uniform(-1.2, 1.2, size=k)),
    lambda x, a, s, t: [(x, s[:, None] * a), (x + s[:, None] * a, t[:, None] * a),
                        (x, (s + t)[:, None] * a)],
)


def _multiplier_legs(x, a, b):
    """The three transports of the multiplier loop x -> x+b -> x+a+b -> x."""
    return [(x, b), (x + b, a), (x, a + b)]


# (x, a, b)
_MULTIPLIER_TRIPLES = (
    lambda rng, k: (_positions(rng, k), rng.uniform(-1.5, 1.5, size=(k, 3)),
                    rng.uniform(-1.5, 1.5, size=(k, 3))),
    _multiplier_legs,
)


# wall bands the lattice suites mask: a closure defect of a step pair
# (|m_i| <= 2) is compared from at most 5 cells in, the parallel pair
# (2h, 3h) of wpr-parallel-trivial from 6
_DEFECT_BAND = ops.defect_clip_cells((2, 2, 2), (2, 2, 2)) + 1
_PARALLEL_BAND = ops.defect_clip_cells((2, 0, 0), (3, 0, 0)) + 1


def _suite_lattice(n: int, box: float, band: int) -> LatticeSpec:
    """The suite's lattice; masking ``band`` wall cells needs n >= 2 band + 2."""
    if n < 2 * band + 2:
        raise ValueError(f"this suite masks {band} wall cells and needs n >= {2 * band + 2}")
    return LatticeSpec(n=n, box=box)


def _sample_steps(rng, spec: LatticeSpec, count: int, bound: int) -> list:
    """``count`` random integer step vectors with components in ``[-bound,
    bound]``, redrawn together until each of them and their sum (the net
    shift of a closure defect) is admissible at every lattice site."""
    while True:
        ms = [rng.integers(-bound, bound + 1, size=3) for _ in range(count)]
        if all(ops._steps_admissible(spec, m) for m in (*ms, sum(ms))):
            return ms


def _sample_box(rng, spec: LatticeSpec) -> hilbert.Box:
    """Random box with faces on cell boundaries, at least a cell from the walls."""
    half = spec.n // 2 - 1
    lo = rng.integers(-half, half - 1, size=3)
    hi = np.array([rng.integers(l + 1, half + 1) for l in lo])
    return hilbert.Box.of(lo * spec.step, hi * spec.step)


def _bitexact_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """0.0 if the arrays are exactly equal, else their largest difference."""
    return 0.0 if np.array_equal(lhs, rhs) else float(np.abs(lhs - rhs).max())


def _covariance_dev(rng, spec: LatticeSpec, psi: LatticeField):
    """Draw admissible steps ``m`` and a box; check ``U(m) E(box) = E(box +
    m h) U(m)``.

    Returns the steps and the bit-exact deviation on ``psi``.
    """
    steps, = _sample_steps(rng, spec, 1, 3)
    box = _sample_box(rng, spec)
    u = ops.twisted_shift(spec, steps)
    lhs = u(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(steps * spec.step), u(psi))
    return steps, _bitexact_dev(lhs.values, rhs.values)


def _closure_defect(rng, spec: LatticeSpec):
    """Draw an admissible step pair and check the closure defect.

    Returns ``(ma, mb, defect, core_symbol, dev, structural)``: the integer
    steps, ``compose_defect(spec, ma, mb)``, its symbol on the sites its
    shifts leave unclipped, the symbol's deviation from
    ``geometry.multiplier(ma h, mb h, x)`` there, and 0.0 if the defect is
    structurally pointwise (else 1.0).
    """
    ma, mb = _sample_steps(rng, spec, 2, 2)
    defect = ops.compose_defect(spec, ma, mb)
    sym = ops.symbol_of(defect)
    core = ops.interior_mask(spec, ops.defect_clip_cells(ma, mb) + 1)
    want = geometry.multiplier(ma * spec.step, mb * spec.step, spec.points())
    dev = float(quat.qnorm(sym - want)[core].max())
    return ma, mb, defect, sym[core], dev, 0.0 if ops.is_pointwise(defect) else 1.0


def _sample_tetraflux(rng, m: int):
    """Flux through ``m`` random tetrahedra against its quantized value.

    Draws edge walks (x, a, b, c), drops those with the origin near a face
    or vertex, and returns ``(x, flux, |flux - 2 pi [origin inside]|)``
    for the rest; inside-ness comes from the signed-volume oracle.
    """
    x = rng.uniform(-2.0, 2.0, size=(m, 3))
    a, b, c = (rng.uniform(-1.5, 1.5, size=(m, 3)) for _ in range(3))
    keep = ~geometry.origin_near_tet_face(x, a, b, c)
    x, a, b, c = x[keep], a[keep], b[keep], c[keep]
    flux = geometry.tetraflux(x, a, b, c)
    inside = geometry.origin_inside_tetrahedron(x, a, b, c)
    return x, flux, np.abs(flux - np.where(inside, 2.0 * np.pi, 0.0))


def gaussian_field(center, width, amp):
    """Analytic Gaussian bump with a constant quaternion amplitude.

    The parameters may carry one leading batch axis (``center`` (B, 3),
    ``width`` (B,), ``amp`` (B, 4)); the field then maps points (..., 3)
    to values (B, ..., 4), field ``k`` of the batch at index ``k``.
    """
    center = np.asarray(center, dtype=float)
    width = np.asarray(width, dtype=float)
    amp = np.asarray(amp, dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        pad = (1,) * (x.ndim - 1)  # the points' own axes, after the batch axis
        c = center.reshape(center.shape[:-1] + pad + (3,))
        # w^2 by C pow, which rounds as a Python float's ``**`` does (numpy's
        # ``**2`` squares, and differs in the last bit for a few widths in
        # 10^4), so a batch keeps the bits of its fields taken one by one
        w2 = np.float_power(width, 2.0).reshape(width.shape + pad)
        env = np.exp(-np.sum((x - c) ** 2, axis=-1) / (2.0 * w2))
        return env[..., None] * amp.reshape(amp.shape[:-1] + pad + (4,))

    return fn


def _random_gaussian_fields(rng, count):
    """``count`` random Gaussian bumps as one batched ``gaussian_field``."""
    center, width, amp = np.empty((count, 3)), np.empty(count), np.empty((count, 4))
    for k in range(count):
        center[k] = _positions(rng, 1, lo=1.2, hi=2.5)[0]
        width[k] = rng.uniform(0.6, 1.2)
        amp[k] = rng.standard_normal(4)
    return gaussian_field(center, width, amp)


def _probe_points(rng):
    return _positions(rng, 12, lo=0.8, hi=2.2)


# ---------------------------------------------------------------------------
# algebra suite

def algebra_suite(samples: int = 10000, seed: int = 42, tol: float = 1e-12) -> Report:
    rng = np.random.default_rng(seed)
    rep = Report(suite="algebra", seed=seed, n_samples=samples)
    basis = np.eye(4)

    # structure constants e_i e_j = -delta_ij e0 + eps_ijk e_k
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    table_dev = []
    for mu in range(4):
        for nu in range(4):
            got = quat.qmul(basis[mu], basis[nu])
            if mu == 0:
                want = basis[nu]
            elif nu == 0:
                want = basis[mu]
            else:
                want = -float(mu == nu) * basis[0]
                want = want + np.concatenate([[0.0], eps[mu - 1, nu - 1]])
            table_dev.append(np.abs(got - want).max())
    rep.checks.append(check_from_devs(
        "multiplication-table", "e_i e_j = -delta_ij e0 + eps_ijk e_k, exact",
        table_dev, 0.0))

    p = rng.standard_normal((samples, 4))
    q = rng.standard_normal((samples, 4))
    r = rng.standard_normal((samples, 4))
    scale = quat.qnorm(p) * quat.qnorm(q) * quat.qnorm(r)
    assoc = quat.qnorm(quat.qmul(quat.qmul(p, q), r) - quat.qmul(p, quat.qmul(q, r)))
    rep.checks.append(check_from_devs(
        "associativity", "(p q) r = p (q r)", assoc / scale, tol))

    anti = quat.qnorm(quat.qconj(quat.qmul(p, q)) - quat.qmul(quat.qconj(q), quat.qconj(p)))
    rep.checks.append(check_from_devs(
        "conjugation", "(p q)* = q* p*", anti / (quat.qnorm(p) * quat.qnorm(q)), tol))

    norm_dev = np.abs(quat.qnorm(quat.qmul(p, q)) - quat.qnorm(p) * quat.qnorm(q))
    rep.checks.append(check_from_devs(
        "norm-multiplicative", "|p q| = |p| |q|",
        norm_dev / (quat.qnorm(p) * quat.qnorm(q)), tol))

    up = _unit_quats(rng, samples)
    uq = _unit_quats(rng, samples)
    hom = np.abs(quat.su2(quat.qmul(up, uq)) - quat.su2(up) @ quat.su2(uq)).max(axis=(-2, -1))
    rep.checks.append(check_from_devs(
        "su2-homomorphism", "su2(p q) = su2(p) su2(q)", hom, tol))

    det_dev = np.abs(np.linalg.det(quat.su2(up)) - 1.0)
    rep.checks.append(check_from_devs(
        "su2-special-unitary", "det su2(p) = 1 for unit p", det_dev, 1e-10))

    w = _imaginary_units(rng, samples)
    sq = quat.qnorm(quat.qmul(w, w) + quat.E0)
    rep.checks.append(check_from_devs(
        "imaginary-square", "w^2 = -e0 for imaginary units", sq, tol))

    m = min(samples, 2000)
    wm = w[:m]
    th = rng.uniform(-6.0, 6.0, size=m)
    ph = rng.uniform(-6.0, 6.0, size=m)
    one_par = quat.qnorm(
        quat.qmul(quat.qexp(th[:, None] * wm), quat.qexp(ph[:, None] * wm))
        - quat.qexp((th + ph)[:, None] * wm))
    rep.checks.append(check_from_devs(
        "exp-one-parameter", "qexp(s w) qexp(t w) = qexp((s+t) w)", one_par, tol))

    aut = quat.qnorm(
        quat.auto(up[:m], quat.qmul(p[:m], q[:m]))
        - quat.qmul(quat.auto(up[:m], p[:m]), quat.auto(up[:m], q[:m])))
    rep.checks.append(check_from_devs(
        "auto-multiplicative", "auto(w, p q) = auto(w, p) auto(w, q)",
        aut / (quat.qnorm(p[:m]) * quat.qnorm(q[:m])), tol))
    return rep


# ---------------------------------------------------------------------------
# geometry suite

def geometry_suite(samples: int = 10000, seed: int = 42, tol: float = 1e-12) -> Report:
    """Transport, cocycle, holonomy-flux and curvature checks."""
    rng = np.random.default_rng(seed)
    rep = Report(suite="geometry", seed=seed, n_samples=samples)

    x = _positions(rng, samples)
    jj = quat.qnorm(quat.qmul(geometry.dirq(x), geometry.dirq(x)) + quat.E0)
    rep.checks.append(check_from_devs("dirq-square", "dirq(x)^2 = -e0", jj, tol))

    xt, a = _sample_legs(rng, samples, _TRANSPORT_PAIRS)
    w = geometry.transport(a, xt)
    rep.checks.append(check_from_devs(
        "transport-unitarity", "|w(a; x)| = 1", np.abs(quat.qnorm(w) - 1.0), tol))

    xc, ac, s, t = _sample_legs(rng, samples, _COCYCLE_SAMPLES)
    lhs = quat.qmul(geometry.transport(t[:, None] * ac, xc + s[:, None] * ac),
                    geometry.transport(s[:, None] * ac, xc))
    rhs = geometry.transport((s + t)[:, None] * ac, xc)
    rep.checks.append(check_from_devs(
        "transport-cocycle", "w(ta; x+sa) w(sa; x) = w((s+t)a; x)",
        quat.qnorm(lhs - rhs), tol))

    xm, am, bm = _sample_legs(rng, samples, _MULTIPLIER_TRIPLES)
    m_val = geometry.multiplier(am, bm, xm)
    flux = geometry.triflux(geometry.multiplier_flux_triangle(am, bm, xm))
    pred = quat.qexp(geometry.dirq(xm) * flux[:, None])
    rep.checks.append(check_from_devs(
        "multiplier-flux", "m(a,b;x) = qexp(dirq(x) * flux(x, x+b, x+a+b))",
        quat.qnorm(m_val - pred), 1e-9))

    triv = quat.qnorm(geometry.multiplier(am, np.zeros(3), xm) - quat.E0)
    rep.checks.append(check_from_devs(
        "multiplier-trivial", "m(a, 0; x) = e0", triv, 1e-10))

    # coplanar loop: b in span(a, x) keeps the flux triangle radial
    m2 = min(samples, 2000)
    alpha = rng.uniform(-1.0, 1.0, size=m2)
    beta = rng.uniform(-0.8, 0.8, size=m2)
    bcop = alpha[:, None] * am[:m2] + beta[:, None] * xm[:m2]
    ok = _legs_clear(_multiplier_legs(xm[:m2], am[:m2], bcop))
    cop = quat.qnorm(geometry.multiplier(am[:m2][ok], bcop[ok], xm[:m2][ok]) - quat.E0)
    rep.checks.append(check_from_devs(
        "multiplier-coplanar", "m = e0 when x, a, b are coplanar with the origin",
        cop, 1e-9))

    rep.checks.append(check_from_devs(
        "flux-quantization", "tetraflux = 2pi iff the origin is inside, else 0",
        _sample_tetraflux(rng, samples)[2], 1e-9))

    # cevian additivity: split (v1, v2, v3) at p on the v2-v3 edge
    m3 = min(samples, 2000)
    tri = _positions(rng, 3 * m3).reshape(m3, 3, 3)
    lam = rng.uniform(0.1, 0.9, size=m3)
    pin = tri[:, 1] + lam[:, None] * (tri[:, 2] - tri[:, 1])
    whole = geometry.triflux(tri)
    part1 = geometry.triflux(np.stack([tri[:, 0], tri[:, 1], pin], axis=1))
    part2 = geometry.triflux(np.stack([tri[:, 0], pin, tri[:, 2]], axis=1))
    rep.checks.append(check_from_devs(
        "triflux-additivity", "flux(whole) = flux(part1) + flux(part2)",
        np.abs(whole - (part1 + part2)), 1e-10))

    cs = geometry.curvature(x)
    anti = np.abs(cs.kappa + np.swapaxes(cs.kappa, -1, -2)).max(axis=(-2, -1))
    rep.checks.append(check_from_devs(
        "curvature-antisymmetry", "kappa_ij = -kappa_ji", anti, 0.0))
    nx = np.linalg.norm(x, axis=-1)
    rel = np.abs(cs.omega - cs.kappa[..., None, :, :] * (x / nx[:, None])[..., :, None, None])
    rep.checks.append(check_from_devs(
        "curvature-su2-radial", "omega^r_ij = kappa_ij x^r / |x|",
        rel.max(axis=(-3, -2, -1)), tol))

    # field strength of the connection by finite differences
    probes = _positions(rng, 50, lo=0.8, hi=2.0)
    h = 1e-4
    fs_dev = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            da_j = (ops.connection_value(_AXES[j], probes + h * _AXES[i])
                    - ops.connection_value(_AXES[j], probes - h * _AXES[i])) / (2.0 * h)
            da_i = (ops.connection_value(_AXES[i], probes + h * _AXES[j])
                    - ops.connection_value(_AXES[i], probes - h * _AXES[j])) / (2.0 * h)
            comm = quat.qmul(ops.connection_value(_AXES[i], probes),
                             ops.connection_value(_AXES[j], probes))
            comm = comm - quat.qmul(ops.connection_value(_AXES[j], probes),
                                    ops.connection_value(_AXES[i], probes))
            target = geometry.curvature(probes).kappa[:, i, j, None] * geometry.dirq(probes)
            fs_dev.append(quat.qnorm(da_j - da_i + comm - target).max())
    rep.checks.append(check_from_devs(
        "curvature-field-strength",
        "dA_j/dx_i - dA_i/dx_j + [A_i, A_j] = kappa_ij dirq(x) (FD)", fs_dev, 1e-6))

    div = []
    for p in probes[:20]:
        d = 0.0
        for i in range(3):
            d += (geometry.bfield(p + h * _AXES[i])[i] - geometry.bfield(p - h * _AXES[i])[i]) / (2.0 * h)
        div.append(abs(d))
    rep.checks.append(check_from_devs(
        "bfield-divergence", "div B = 0 away from the origin (FD)", div, 1e-6))

    c0 = geometry.chern(256)
    c7 = geometry.chern(256, radius=7.0)
    cr = geometry.chern(256, reverse=True)
    rep.checks.append(check_from_devs(
        "chern-integral", "sphere integral of kappa = 2pi",
        [abs(c0 - 2.0 * np.pi)], 1e-6))
    rep.checks.append(check_from_devs(
        "chern-radius", "radius independence of the sphere integral",
        [abs(c7 - 2.0 * np.pi)], 1e-6))
    rep.checks.append(check_from_devs(
        "chern-orientation", "reversed orientation flips the sign",
        [abs(cr + 2.0 * np.pi)], 1e-6))
    return rep


# ---------------------------------------------------------------------------
# operators suite

def _richardson(devs_h, devs_h2):
    return np.asarray(devs_h) / np.maximum(np.asarray(devs_h2), 1e-300)


# the Richardson-checked stencil identities: each takes an analytic field
# (batched or not), the probe points and the step, and returns the largest
# deviation over the probes, one per field of a batch

def _dev_grad_position(fn, probes, h):
    devs = []
    for i in range(3):
        for j in range(3):
            grad = ops.covderiv_fn(lambda y, jj=j: y[..., jj, None] * fn(y), _AXES[i], h)
            direct = ops.covderiv_fn(fn, _AXES[i], h)
            comm = grad(probes) - probes[:, j, None] * direct(probes)
            target = fn(probes) if i == j else 0.0
            devs.append(quat.qnorm(comm - target).max(axis=-1))
    return np.max(devs, axis=0)


def _dev_grad_commutator(fn, probes, h):
    return np.max([ops.commutator_check(i, j, fn, probes, h).max(axis=-1)
                   for i, j in ((0, 1), (1, 2), (2, 0))], axis=0)


def _dev_rotation_covariance(fn, probes, h):
    devs = []
    for i, j, k, sign in ((2, 0, 1, -1.0), (0, 1, 2, -1.0), (2, 1, 0, 1.0)):
        # [M_i, grad_j] = -eps_ijk grad_k; listed triples have eps = +/-1
        mg = ops.rotgen_fn(ops.covderiv_fn(fn, _AXES[j], h), i, h)
        gm = ops.covderiv_fn(ops.rotgen_fn(fn, i, h), _AXES[j], h)
        target = sign * ops.covderiv_fn(fn, _AXES[k], h)(probes)
        devs.append(quat.qnorm(mg(probes) - gm(probes) - target).max(axis=-1))
    return np.max(devs, axis=0)


def _dev_rotation_j(fn, probes, h):
    devs = []
    jfn = lambda y: quat.qmul(geometry.dirq(y), fn(y))
    for i in range(3):
        mj = ops.rotgen_fn(jfn, i, h)(probes)
        jm = quat.qmul(geometry.dirq(probes), ops.rotgen_fn(fn, i, h)(probes))
        devs.append(quat.qnorm(mj - jm).max(axis=-1))
    return np.max(devs, axis=0)


# (name, law, deviation function, tolerance at step h)
_STENCIL_IDENTITIES = (
    ("grad-position", "[grad_i, X_j] = delta_ij", _dev_grad_position, 2e-3),
    ("grad-commutator", "[grad_i, grad_j] = kappa_ij J", _dev_grad_commutator, 2e-3),
    ("rotation-covariance", "[M_i, grad_j] = -eps_ijk grad_k", _dev_rotation_covariance, 2e-3),
    ("rotation-j-invariance", "[M_i, J] = 0", _dev_rotation_j, 2e-3),
)


# The operators suite runs its check groups one function each, in a fixed
# order on one generator, so a group's whole-grid temporaries are freed
# before the next group starts.

def _jop_checks(rep, spec, psi, phi, jo, tol):
    rep.checks.append(check_from_devs(
        "jop-square", "J^2 = -I",
        [np.abs(jo(jo(psi)).values + psi.values).max()], 1e-14))
    lhs = hilbert.inner(phi, jo(psi))
    rhs = hilbert.inner(jo(phi), psi)
    scale = hilbert.norm(phi) * hilbert.norm(psi)
    rep.checks.append(check_from_devs(
        "jop-antihermitian", "inner(phi, J psi) = -inner(J phi, psi)",
        np.abs(lhs + rhs) / scale, tol))
    rep.checks.append(check_from_devs(
        "jop-isometry", "|J psi| = |psi|",
        [abs(hilbert.norm(jo(psi)) - hilbert.norm(psi)) / hilbert.norm(psi)], tol))

    # [X_i, J] = 0: two left multipliers with a real factor
    xj = []
    for i in range(3):
        xi = ops.position(spec, i)
        diff = xi(jo(psi)).values - jo(xi(psi)).values
        xj.append(np.abs(diff).max() / (spec.box * np.abs(psi.values).max()))
    rep.checks.append(check_from_devs(
        "position-j-commute", "[X_i, J] = 0 (roundoff only)", xj, 1e-14))


def _shift_checks(rep, rng, spec, psi, interior, samples):
    # imprimitivity, multiplied-through form, bit-exact
    imp_dev, comp_dev = [], []
    for _ in range(samples):
        steps, dev = _covariance_dev(rng, spec, psi)
        imp_dev.append(dev)
        s2, = _sample_steps(rng, spec, 1, 3)
        v1 = ops.Shift(spec, steps)
        v2 = ops.Shift(spec, s2)
        v12 = ops.Shift(spec, steps + s2)
        comp_dev.append(_bitexact_dev(v1(v2(interior)).values, v12(interior).values))
    rep.checks.append(check_from_devs(
        "imprimitivity", "U(a) E(box) = E(box+a) U(a), bit-exact", imp_dev, 0.0))
    rep.checks.append(check_from_devs(
        "shift-composition", "V(a) V(b) = V(a+b), bit-exact", comp_dev, 0.0))


def _twisted_checks(rep, rng, spec, interior, tol):
    # twisted shifts: unitary, one-parameter along a line
    un_dev, group_dev = [], []
    interior_norm = hilbert.norm(interior)
    for _ in range(20):
        m, = _sample_steps(rng, spec, 1, 3)
        u = ops.twisted_shift(spec, m)
        un_dev.append(abs(hilbert.norm(u(interior)) - interior_norm) / interior_norm)
        ax = int(rng.integers(0, 3))
        s_steps = int(rng.integers(1, 3))
        t_steps = int(rng.integers(1, 3))
        unit = _UNIT_STEPS[ax]
        left = ops.twisted_shift(spec, s_steps * unit)(
            ops.twisted_shift(spec, t_steps * unit)(interior))
        right = ops.twisted_shift(spec, (s_steps + t_steps) * unit)(interior)
        group_dev.append(np.abs(left.values - right.values).max())
    rep.checks.append(check_from_devs(
        "twisted-unitarity", "|U(a) psi| = |psi| (interior support)", un_dev, tol))
    rep.checks.append(check_from_devs(
        "one-parameter-line", "U(s u) U(t u) = U((s+t) u)", group_dev, tol))


def _defect_checks(rep, rng, spec, tol):
    # closure defects: pointwise, with the transport-product symbol; WPR off a line
    defect_dev, defect_struct, wpr_size = [], [], []
    for _ in range(10):
        ma, mb, _, sym, dev, pointwise = _closure_defect(rng, spec)
        defect_struct.append(pointwise)
        defect_dev.append(dev)
        if np.cross(ma, mb).any():
            wpr_size.append(quat.qnorm(sym - quat.E0).max())
    rep.checks.append(check_from_devs(
        "defect-symbol", "U(a+b)* U(a) U(b) has symbol w(a+b;x)* w(a;x+b) w(b;x)",
        defect_dev, tol))
    rep.checks.append(check_from_devs(
        "defect-pointwise", "closure defect is a pointwise multiplier", defect_struct, 0.0))
    rep.checks.append(check_from_devs(
        "wpr-nontrivial", "generic closure defect differs from the identity",
        [0.0 if (min(wpr_size) > 1e-3) else 1.0], 0.0))

    # parallel shifts close exactly
    par_dev = []
    core = ops.interior_mask(spec, _PARALLEL_BAND)
    for unit in _UNIT_STEPS:
        sym = ops.symbol_of(ops.compose_defect(spec, 2 * unit, 3 * unit))
        par_dev.append(quat.qnorm(sym - quat.E0)[core].max())
    rep.checks.append(check_from_devs(
        "wpr-parallel-trivial", "m(a, b; x) = e0 for parallel a, b", par_dev, tol))


def _analytic_checks(rep, rng):
    # connection value spot check: u = e1 at x = (0,0,1) -> -e2/2
    conn = ops.connection_value(_AXES[0], np.array([0.0, 0.0, 1.0]))
    rep.checks.append(check_from_devs(
        "connection-value", "connection(e1)(0,0,1) = -e2/2",
        [np.abs(conn - np.array([0.0, 0.0, -0.5, 0.0])).max()], 1e-15))

    # stencil identities on analytic fields, with Richardson ratios
    fields = _random_gaussian_fields(rng, 20)
    probes = _probe_points(rng)
    h = 0.02
    for name, law, fdev, tol_h in _STENCIL_IDENTITIES:
        devs_h = fdev(fields, probes, h)
        devs_h2 = fdev(fields, probes, h / 2.0)
        ratios = _richardson(devs_h, devs_h2)
        rep.checks.append(check_from_devs(name, law + " (step h)", devs_h, tol_h))
        rep.checks.append(check_from_devs(
            name + "-order", law + ": Richardson ratio h vs h/2 in 4 +/- 0.5",
            np.abs(ratios - 4.0), 0.5))

    # the first five fields one at a time
    first = [lambda y, k=k: fields(y)[k] for k in range(5)]

    # [M_3, X_1] = -X_2 on analytic fields
    rotx_dev = []
    for fn in first:
        mx = ops.rotgen_fn(lambda y: y[..., 0, None] * fn(y), 2, h)(probes)
        xm = probes[:, 0, None] * ops.rotgen_fn(fn, 2, h)(probes)
        rotx_dev.append(quat.qnorm(mx - xm + probes[:, 1, None] * fn(probes)).max())
    rep.checks.append(check_from_devs(
        "rotation-position", "[M_3, X_1] = -X_2", rotx_dev, 2e-3))

    # full turn: exp(2 pi M_3) = -identity (factored rotation, exact)
    turn_dev = []
    for fn in first:
        rot = ops.rotation_exp_fn(fn, 2, 2.0 * np.pi)
        turn_dev.append(quat.qnorm(rot(probes) + fn(probes)).max()
                        / quat.qnorm(fn(probes)).max())
    rep.checks.append(check_from_devs(
        "spin-half-turn", "exp(2 pi M_3) = -I", turn_dev, 1e-12))

    # generator of the continuum twisted translations, (U(a) psi)(x) =
    # transport(a; x - a) psi(x - a), along a random direction u:
    # (U(su) psi - psi)/s -> -grad_u psi
    gen_dev_s, gen_dev_s2 = [], []
    s0 = 1e-3
    for fn in first:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        target = ops.covderiv_fn(fn, u, 1e-4)(probes)
        for s_val, out in ((s0, gen_dev_s), (s0 / 2.0, gen_dev_s2)):
            shifted = quat.qmul(geometry.transport(s_val * u, probes - s_val * u),
                                fn(probes - s_val * u))
            fd = (shifted - fn(probes)) / s_val
            out.append(quat.qnorm(fd + target).max())
    rep.checks.append(check_from_devs(
        "twisted-generator", "(U(s u) psi - psi)/s -> -grad_u psi", gen_dev_s, 1e-2))
    rep.checks.append(check_from_devs(
        "twisted-generator-order", "first-order convergence ratio in 2 +/- 0.5",
        np.abs(_richardson(gen_dev_s, gen_dev_s2) - 2.0), 0.5))


def _hamiltonian_checks(rep, spec, psi, phi, jo, smooth, ham, tol):
    # lattice Hamiltonian: hermitian, commutes with J at O(h^2), Ehrenfest form
    lhs = hilbert.inner(phi, ham(psi))[0]
    rhs = hilbert.inner(ham(phi), psi)[0]
    rep.checks.append(check_from_devs(
        "hamiltonian-hermitian", "inner(phi, H psi) = inner(H phi, psi)",
        [abs(lhs - rhs) / abs(lhs)], tol))

    # the transported-hop forms make both splitting identities exact on the
    # lattice (roundoff only), strictly better than the O(h^2) bound that a
    # multiplier-connection discretization would give
    h_smooth = ham(smooth)
    hj = ham(jo(smooth)).values - jo(h_smooth).values
    rep.checks.append(check_from_devs(
        "hamiltonian-j-commute", "[H, J] = 0, exact on the lattice",
        [quat.qnorm(hj).max() / np.abs(h_smooth.values).max()], 1e-12))

    ehr_dev = []
    for i in range(3):
        xi = ops.position(spec, i)
        comm = ham(xi(smooth)).values - xi(h_smooth).values
        target = -ops.covderiv(spec, i)(smooth).values
        ehr_dev.append(quat.qnorm(comm - target).max() / quat.qnorm(target).max())
    rep.checks.append(check_from_devs(
        "hamiltonian-velocity", "[H, X_i] = -(1/m) grad_i, exact on the lattice",
        ehr_dev, 1e-12))

    bval = ops.symbol_of(ops.bfield_op(spec, 2))
    pts3 = spec.points()[..., 2]
    r = np.linalg.norm(spec.points(), axis=-1)
    rep.checks.append(check_from_devs(
        "bfield-op", "B_3 symbol = x_3 / (2 |x|^3)",
        [np.abs(bval[..., 0] - 0.5 * pts3 / r**3).max()], 1e-14))


def _adjoint_checks(rep, spec, jo, interior, smooth, ham):
    # adjoint consistency on interior-supported fields
    adj_dev = []
    for op in (jo, ops.position(spec, 1), ops.left_unit(spec, 0),
               ops.Shift(spec, [2, -1, 0]), ops.Diff(spec, 1), ops.covderiv(spec, 2),
               ops.twisted_shift(spec, [1, 2, 0]), ham):
        lhs = hilbert.inner(interior, op(smooth))[0]
        rhs = hilbert.inner(op.adjoint()(interior), smooth)[0]
        adj_dev.append(abs(lhs - rhs) / max(abs(lhs), 1e-12))
    rep.checks.append(check_from_devs(
        "adjoint-consistency", "inner(phi, A psi) = inner(A* phi, psi)", adj_dev, 1e-10))


def operators_suite(n: int = 32, box: float = 6.0, samples: int = 1000,
                    seed: int = 42, tol: float = 1e-12) -> Report:
    samples = min(samples, 200)  # imprimitivity draws; the report states the count drawn
    spec = _suite_lattice(n, box, _PARALLEL_BAND)
    # built first, so that a lattice on which it vanishes is refused before any check
    smooth = hilbert.sample(spec, gaussian_field((1.5, 0.8, -0.6), 1.0, (1.0, 0.3, -0.2, 0.5)))
    smooth_norm = hilbert.norm(smooth)
    if smooth_norm == 0.0:
        raise ValueError("the suite's smooth Gaussian underflows to norm 0 on this lattice; "
                         "take a smaller box")
    smooth = LatticeField(spec, smooth.values / smooth_norm)
    rng = np.random.default_rng(seed)
    rep = Report(suite="operators", seed=seed, n_samples=samples)
    psi = LatticeField(spec, rng.standard_normal((n, n, n, 4)))
    phi = LatticeField(spec, rng.standard_normal((n, n, n, 4)))
    jo = ops.jop(spec)
    _jop_checks(rep, spec, psi, phi, jo, tol)
    # fields with an empty band at the walls: shifts act without clipping
    interior = hilbert.project(
        hilbert.Box.of((-box * 0.55,) * 3, (box * 0.55,) * 3), psi)
    _shift_checks(rep, rng, spec, psi, interior, samples)
    _twisted_checks(rep, rng, spec, interior, tol)
    _defect_checks(rep, rng, spec, tol)
    _analytic_checks(rep, rng)
    ham = ops.hamiltonian(spec, 1.0)
    _hamiltonian_checks(rep, spec, psi, phi, jo, smooth, ham, tol)
    _adjoint_checks(rep, spec, jo, interior, smooth, ham)
    return rep


# ---------------------------------------------------------------------------
# splitting suite

def splitting_suite(n: int = 32, box: float = 6.0, samples: int = 200,
                    seed: int = 42) -> Report:
    samples = min(samples, 200)  # the report states the count drawn
    rng = np.random.default_rng(seed)
    rep = Report(suite="splitting", seed=seed, n_samples=samples)
    spec = LatticeSpec(n=n, box=box)
    w, wt = quat.E3, quat.E1  # the slice and its complement

    rec_dev, norm_dev, memb_dev, orth_re, orth_slice, inner_slice = [], [], [], [], [], []
    for _ in range(samples):
        psi = LatticeField(spec, rng.standard_normal((n, n, n, 4)))
        nn = hilbert.norm(psi)
        psi = LatticeField(spec, psi.values / nn)
        pair = splitting.split(psi)
        rec = splitting.reconstruct(pair)
        rec_dev.append(np.abs(rec.values - psi.values).max())
        n0 = hilbert.norm(psi) ** 2
        n1 = hilbert.norm(pair.psi1) ** 2
        n2 = hilbert.norm(pair.psi2) ** 2
        norm_dev.append(abs(n0 - n1 - n2))
        memb_dev.append(max(splitting.slice_residual(pair.psi1),
                            splitting.slice_residual(pair.psi2)))
        # orthogonality of the decomposition: inner(psi1, psi2 wt) has no
        # slice component (real part and omega component vanish)
        cross = hilbert.inner(pair.psi1, hilbert.rscale(pair.psi2, wt))
        orth_re.append(abs(cross[0]))
        orth_slice.append(abs(np.sum(cross * w)))
        # inner product of two slice members lands in the slice field
        q12 = hilbert.inner(pair.psi1, pair.psi2)
        perp = q12 - q12[0] * quat.E0 - np.sum(q12 * w) * w
        inner_slice.append(quat.qnorm(perp))
    rep.checks.append(check_from_devs(
        "reconstruction", "psi1 + psi2 omega_tilde = psi", rec_dev, 1e-14))
    rep.checks.append(check_from_devs(
        "norm-additivity", "|psi|^2 = |psi1|^2 + |psi2|^2", norm_dev, 1e-12))
    rep.checks.append(check_from_devs(
        "slice-membership", "J psi_k = psi_k omega", memb_dev, 1e-14))
    rep.checks.append(check_from_devs(
        "orthogonality-real", "Re inner(psi1, psi2 omega_tilde) = 0", orth_re, 1e-12))
    rep.checks.append(check_from_devs(
        "orthogonality-slice", "slice part of inner(psi1, psi2 omega_tilde) = 0",
        orth_slice, 1e-12))
    rep.checks.append(check_from_devs(
        "inner-in-slice", "inner on the slice takes slice-field values",
        inner_slice, 1e-12))

    # slice members already in the slice split as (psi, 0)
    member = splitting.random_slice_member(spec, rng)
    pair = splitting.split(member)
    rep.checks.append(check_from_devs(
        "split-of-member", "psi in slice -> split(psi) = (psi, 0)",
        [np.abs(pair.psi1.values - member.values).max(),
         np.abs(pair.psi2.values).max()], 1e-14))

    # right multiplication by slice scalars stays in the slice
    z = 0.7 * quat.E0 + 0.3 * w
    rep.checks.append(check_from_devs(
        "slice-linear", "psi in slice -> psi z in slice for z = u + v omega",
        [splitting.slice_residual(hilbert.rscale(member, z))], 1e-12))

    # each reduce check holds its inputs to slice membership too: a sampler
    # that stopped drawing slice members would fail them, not pass vacuously
    before, after = splitting.reduce_check(
        ops.twisted_shift(spec, [2, 1, 0]), samples=5, seed=seed)
    rep.checks.append(check_from_devs(
        "reduce-twisted-shift", "U(a) preserves the slice",
        [max(before.max(), after.max())], 1e-12))

    before, after = splitting.reduce_check(ops.hamiltonian(spec, 1.0), samples=5, seed=seed)
    rep.checks.append(check_from_devs(
        "reduce-hamiltonian", "H preserves the slice (exact for hop links)",
        [max(before.max(), after.max())], 1e-12))

    before, after = splitting.reduce_check(ops.left_unit(spec, 0), samples=3, seed=seed)
    rep.checks.append(check_from_devs(
        "reduce-negative-control", "bare e1 multiplier does NOT reduce (residual order 1)",
        [0.0 if before.max() <= 1e-12 and after.max() > 0.1 else 1.0], 0.0))
    return rep


# ---------------------------------------------------------------------------
# gis suite

def gis_suite(n: int = 32, box: float = 6.0, samples: int = 1000,
              seed: int = 42) -> Report:
    """Check the three generalized-imprimitivity axioms on random inputs.

    covariance:   twisted_shift(m) E(box) == E(box + m h) twisted_shift(m),
                  bit-exact on integer steps m;
    composition:  the closure defect of two twisted shifts is a pointwise
                  multiplier whose symbol matches the transport product;
    multiplier:   the defect symbol is quaternion-valued of unit norm, and
                  commutes bit-exactly with every spectral projection.

    Associativity is quantized flux: for 2000 random tetrahedra the total
    flux lands on {0, 2pi} and ``qexp(dirq(x) * flux)`` is the unit.
    """
    spec = _suite_lattice(n, box, _DEFECT_BAND)
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
        box = _sample_box(rng, spec)
        lhs = defect(hilbert.project(box, psi))
        rhs = hilbert.project(box, defect(psi))
        mult_comm_dev.append(_bitexact_dev(lhs.values, rhs.values))
    rep.checks.append(check_from_devs(
        "composition-defect", "symbol of U(a+b)* U(a) U(b) = w(a+b;x)* w(a;x+b) w(b;x)",
        comp_dev, 1e-12))
    rep.checks.append(check_from_devs(
        "defect-pointwise", "closure defect has zero net displacement", structural, 0.0))
    rep.checks.append(check_from_devs(
        "multiplier-unit", "|m(a,b;x)| = 1", mult_norm_dev, 1e-12))
    rep.checks.append(check_from_devs(
        "multiplier-commutes", "M(a,b) E(box) = E(box) M(a,b), bit-exact", mult_comm_dev, 0.0))

    x, flux, flux_dev = _sample_tetraflux(rng, 2000)
    rep.checks.append(check_from_devs(
        "flux-quantization", "tetrahedron flux in {0, 2pi} (inside iff 2pi)", flux_dev, 1e-9))
    holo = quat.qexp(geometry.dirq(x) * flux[:, None])
    rep.checks.append(check_from_devs(
        "associativity", "qexp(dirq(x) * tetraflux) = e0",
        quat.qnorm(holo - quat.E0), 1e-9))

    # a fresh generator, so the check is independent of the draws above
    rep.checks.append(check_from_devs(
        "slice-winding", "qexp(2 pi w) = e0 for every imaginary unit",
        quat.qnorm(quat.qexp(2.0 * np.pi * _imaginary_units(
            np.random.default_rng(seed), 100)) - quat.E0), 1e-12))
    return rep


# the CLI passes each suite only the options its signature names
SUITES = {
    "algebra": algebra_suite,
    "geometry": geometry_suite,
    "operators": operators_suite,
    "splitting": splitting_suite,
    "gis": gis_suite,
}
