"""Randomized verification suites behind the CLI.

Each suite draws seeded samples, runs a batch of identity checks at fixed
tolerances, and returns a ``Report``.  Identities fall into three classes:

* algebraic (quaternion algebra, transport unitarity, holonomy = flux
  exponential): tolerances at roundoff scale;
* structural lattice identities (imprimitivity on integer-step shifts,
  multiplier/projection commutation): bit-exact;
* stencil identities (commutators, rotation covariance): O(h^2), verified
  together with their Richardson ratio between steps h and h/2.

The ``gis``, ``operators`` and ``splitting`` suites each run as one task
list.  A suite first draws every input from its generator in the parent,
in the order a draw-then-check loop would draw them; then it evaluates one
list of tasks, every check group and every sampled draw, with a single
``runner.run_tasks`` call (forked worker processes, one per available
core; in the calling process with one core or without ``fork``); last,
it turns the sampled draws' deviations into one row per check (``_rows``)
and appends every check in report order.  The tasks are listed
longest first, in a fixed order written in each suite.  The covariance
draws of ``gis`` and the imprimitivity draws of ``operators`` are grouped
by step vector: one task builds the twisted shift ``U(m)`` and ``U(m) psi``
once and checks every box drawn with that ``m`` (``_step_group_tasks``).
A projected field holds only its box's block of sites, so ``U(m) E(box)
psi``, a closure defect applied to ``E(box) psi`` and every shift of the
operators suite's ``interior`` field hold and compare blocks only.
The twisted lines of ``operators`` are grouped by axis the same way, keyed
by the line's unit step ``u``: one task builds each ``U(c u)`` once; each
draw's unitarity stays a task of its own.  A closure defect's symbol is
compared with ``geometry.multiplier`` on the sites its shifts leave
unclipped, and the oracle is evaluated on those sites only.
The splitting suite draws one whole field per sample, so its tasks are
contiguous runs of samples: each run starts the suite generator from the
seed and replays it through the runs before its own (``_split_run``), so it
draws the same fields without the parent holding them or a generator.  The
last run goes on to the member checks, which draw from where its fields
leave the generator.  The same code runs on the same inputs, so a report
does not depend on the number of workers.  The geometry suite, batched
vector work and three ``chern`` quadratures, runs in the calling process;
each quadrature evaluates its integrand in blocks of polar-angle rows,
so it holds one float per quadrature point plus one block, bit-identical
to the whole-grid form.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from . import geometry, hilbert, operators as ops, quat, runner, splitting
from .hilbert import LatticeField, LatticeSpec
from .report import Report, check_from_devs

_AXES = np.eye(3, dtype=int)  # the unit steps, also the axis unit vectors


# ---------------------------------------------------------------------------
# samplers

def _unit_quats(rng, m):
    q = rng.standard_normal((m, 4))
    return q / quat.qnorm(q)[:, None]


def _imaginary_units(rng, m):
    v = rng.standard_normal((m, 3))
    return quat.from_vector(v / np.linalg.norm(v, axis=-1)[:, None])


def _sample(rng, m, draw, accept):
    """Rejection sampler: the first ``m`` candidates that ``accept(*cand)``
    keeps, in draw order; ``draw(rng, k)`` returns k candidates as a tuple
    of arrays, 2m a round."""
    chunks = []
    while sum(len(chunk[0]) for chunk in chunks) < m:
        cand = draw(rng, 2 * m)
        ok = accept(*cand)
        chunks.append([c[ok] for c in cand])
    return tuple(np.concatenate(parts)[:m] for parts in zip(*chunks))


def _positions(rng, m, lo=0.4, hi=3.0):
    def in_shell(x):
        r = np.linalg.norm(x, axis=-1)
        return (r > lo) & (r < hi)

    return _sample(rng, m, lambda g, k: (g.uniform(-hi, hi, size=(k, 3)),), in_shell)[0]


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
    """``m`` draws whose transport legs are all clear: ``family = (draw,
    legs)``, ``draw`` as for ``_sample`` and ``legs(*cand)`` the
    candidates' ``(start, displacement)`` legs."""
    draw, legs = family
    return _sample(rng, m, draw, lambda *cand: _legs_clear(legs(*cand)))


# ---------------------------------------------------------------------------
# task lists

def _step_group_tasks(draws: list, evaluate) -> tuple:
    """One task per distinct step vector of ``draws``, whose first entries
    are step vectors, and the draw indices of each task's group.

    A group's task is ``evaluate(m, *columns)``, with the group's further
    draw entries as one column each, in draw order; it returns one result
    per draw.  The largest group comes first, equal ones in order of first
    appearance; ``_in_draw_order`` puts the results back in draw order.
    """
    groups = {}
    for i, draw in enumerate(draws):
        groups.setdefault(tuple(draw[0]), []).append(i)
    groups = sorted(groups.values(), key=len, reverse=True)
    tasks = [partial(evaluate, draws[g[0]][0], *zip(*(draws[i][1:] for i in g)))
             for g in groups]
    return tasks, groups


def _in_draw_order(groups: list, results: list) -> list:
    """The per-draw results of ``_step_group_tasks``' tasks, in draw order."""
    out = [None] * sum(map(len, groups))
    for group, res in zip(groups, results):
        for i, r in zip(group, res):
            out[i] = r
    return out


def _rows(devs, *rows) -> list:
    """One ``check_from_devs(name, law, column, tol)`` per ``(name, law,
    tol)`` of ``rows``: the k-th takes the k-th entry of every per-draw
    tuple of ``devs``, in draw order."""
    return [check_from_devs(name, law, column, tol)
            for (name, law, tol), column in zip(rows, zip(*devs), strict=True)]


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


def _bitexact_dev(lhs: LatticeField, rhs: LatticeField) -> float:
    """0.0 if the fields' values are exactly equal, else their largest
    difference.  Two fields with one ``support`` hold only their blocks on
    it, so the blocks are compared: they read the whole grid's deviation.
    Fields with different supports are compared on whole grids."""
    a, b = (lhs.block, rhs.block) if lhs.support == rhs.support else (lhs.values, rhs.values)
    return 0.0 if np.array_equal(a, b) else float(np.abs(a - b).max())


def _covariance_draw(rng, spec: LatticeSpec) -> tuple:
    """Admissible steps ``m`` and a box for one covariance check."""
    steps, = _sample_steps(rng, spec, 1, 3)
    return steps, _sample_box(rng, spec)


def _covariance_devs(spec: LatticeSpec, psi: LatticeField, steps, boxes) -> list:
    """Bit-exact deviations of ``U(m) E(box) = E(box + m h) U(m)`` on
    ``psi`` for ``m = steps``, one per box; ``U(m)`` and ``U(m) psi`` are
    built once."""
    u = ops.twisted_shift(spec, steps)
    u_psi = u(psi)
    return [_bitexact_dev(u(hilbert.project(box, psi)),
                          hilbert.project(box.translate(steps * spec.step), u_psi))
            for box in boxes]


def _closure_defect(spec: LatticeSpec, ma, mb):
    """The closure defect of an admissible step pair (``_sample_steps(rng,
    spec, 2, 2)`` draws one).

    Returns ``(defect, core_symbol, dev, structural)``:
    ``compose_defect(spec, ma, mb)``, its symbol on the block of sites its
    shifts leave unclipped (``interior_block``), the symbol's deviation
    from ``geometry.multiplier(ma h, mb h, x)`` evaluated on those sites
    only, and 0.0 if the defect is structurally pointwise (else 1.0).
    """
    defect = ops.compose_defect(spec, ma, mb)
    core = ops.interior_block(spec, ops.defect_clip_cells(ma, mb) + 1)
    sym = ops.symbol_of(defect)[core]
    want = geometry.multiplier(ma * spec.step, mb * spec.step, spec.points()[core])
    dev = float(quat.qnorm(sym - want).max())
    return defect, sym, dev, 0.0 if ops.is_pointwise(defect) else 1.0


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


def _random_gaussian_fields(rng, count):
    """``count`` random Gaussian bumps as one batched ``hilbert.gaussian_field``."""
    center, width, amp = np.empty((count, 3)), np.empty(count), np.empty((count, 4))
    for k in range(count):
        center[k] = _positions(rng, 1, lo=1.2, hi=2.5)[0]
        width[k] = rng.uniform(0.6, 1.2)
        amp[k] = rng.standard_normal(4)
    return hilbert.gaussian_field(center, width, amp)


def _probe_points(rng):
    return _positions(rng, 12, lo=0.8, hi=2.2)


# ---------------------------------------------------------------------------
# algebra suite

def algebra_suite(samples: int = 10000, seed: int = 42, tol: float = 1e-12) -> Report:
    rng = np.random.default_rng(seed)
    rep = Report(suite="algebra", seed=seed, n_samples=samples)
    basis = np.eye(4)

    # the table want[mu, nu] = e_mu e_nu from the structure constants
    # e_i e_j = -delta_ij e0 + eps_ijk e_k, against all 16 products at once
    want = np.zeros((4, 4, 4))
    want[0], want[:, 0], want[1:, 1:, 0] = basis, basis, -np.eye(3)
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        want[i, j, k], want[j, i, k] = 1.0, -1.0
    table_dev = np.abs(quat.qmul(basis[:, None], basis[None, :]) - want).max(axis=-1)
    rep.checks.append(check_from_devs(
        "multiplication-table", "e_i e_j = -delta_ij e0 + eps_ijk e_k, exact",
        table_dev.ravel(), 0.0))

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
    conn = [lambda y, k=k: ops.connection_value(_AXES[k], y) for k in range(3)]
    fs_dev = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            da_j = ops.partial_fn(conn[j], i, h)(probes)
            da_i = ops.partial_fn(conn[i], j, h)(probes)
            comm = (quat.qmul(conn[i](probes), conn[j](probes))
                    - quat.qmul(conn[j](probes), conn[i](probes)))
            target = geometry.curvature(probes).kappa[:, i, j, None] * geometry.dirq(probes)
            fs_dev.append(quat.qnorm(da_j - da_i + comm - target).max())
    rep.checks.append(check_from_devs(
        "curvature-field-strength",
        "dA_j/dx_i - dA_i/dx_j + [A_i, A_j] = kappa_ij dirq(x) (FD)", fs_dev, 1e-6))

    db = [ops.partial_fn(geometry.bfield, i, h) for i in range(3)]
    div = [abs(sum(db[i](p)[i] for i in range(3))) for p in probes[:20]]
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
# (batched or not), the probe points and the step, and returns the residual
# array of each of its terms, which _worst reduces to the largest deviation
# over the probes, one per field of a batch

def _worst(residuals):
    return np.max([quat.qnorm(r).max(axis=-1) for r in residuals], axis=0)


def _dev_grad_position(fn, probes, h):
    res = []
    for i in range(3):
        direct = ops.covderiv_fn(fn, _AXES[i], h)(probes)
        for j in range(3):
            grad = ops.covderiv_fn(lambda y, jj=j: y[..., jj, None] * fn(y), _AXES[i], h)
            comm = grad(probes) - probes[:, j, None] * direct
            target = fn(probes) if i == j else 0.0
            res.append(comm - target)
    return res


def _dev_grad_commutator(fn, probes, h):
    res = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        # [grad_i, grad_j] = kappa_ij J, with J the left multiplication by dirq(x)
        di_dj = ops.covderiv_fn(ops.covderiv_fn(fn, _AXES[j], h), _AXES[i], h)
        dj_di = ops.covderiv_fn(ops.covderiv_fn(fn, _AXES[i], h), _AXES[j], h)
        kap = geometry.curvature(probes).kappa[..., i, j]
        target = kap[..., None] * quat.qmul(geometry.dirq(probes), fn(probes))
        res.append(di_dj(probes) - dj_di(probes) - target)
    return res


def _dev_rotation_covariance(fn, probes, h):
    res = []
    for i, j, k, sign in ((2, 0, 1, -1.0), (0, 1, 2, -1.0), (2, 1, 0, 1.0)):
        # [M_i, grad_j] = -eps_ijk grad_k; listed triples have eps = +/-1
        mg = ops.rotgen_fn(ops.covderiv_fn(fn, _AXES[j], h), i, h)
        gm = ops.covderiv_fn(ops.rotgen_fn(fn, i, h), _AXES[j], h)
        target = sign * ops.covderiv_fn(fn, _AXES[k], h)(probes)
        res.append(mg(probes) - gm(probes) - target)
    return res


def _dev_rotation_j(fn, probes, h):
    jfn = lambda y: quat.qmul(geometry.dirq(y), fn(y))
    return [ops.rotgen_fn(jfn, i, h)(probes)
            - quat.qmul(geometry.dirq(probes), ops.rotgen_fn(fn, i, h)(probes)) for i in range(3)]


def _dev_rotation_position(fn, probes, h):
    # [M_3, X_1] = -X_2
    mx = ops.rotgen_fn(lambda y: y[..., 0, None] * fn(y), 2, h)(probes)
    xm = probes[:, 0, None] * ops.rotgen_fn(fn, 2, h)(probes)
    return [mx - xm + probes[:, 1, None] * fn(probes)]


def _dev_spin_half_turn(fn, probes):
    # full turn: exp(2 pi M_3) = -identity (factored rotation, exact)
    rot = ops.rotation_exp_fn(fn, 2, 2.0 * np.pi)(probes)
    return quat.qnorm(rot + fn(probes)).max(axis=-1) / quat.qnorm(fn(probes)).max(axis=-1)


# (name, law, residual function, tolerance at step h)
_STENCIL_IDENTITIES = (
    ("grad-position", "[grad_i, X_j] = delta_ij", _dev_grad_position, 2e-3),
    ("grad-commutator", "[grad_i, grad_j] = kappa_ij J", _dev_grad_commutator, 2e-3),
    ("rotation-covariance", "[M_i, grad_j] = -eps_ijk grad_k", _dev_rotation_covariance, 2e-3),
    ("rotation-j-invariance", "[M_i, J] = 0", _dev_rotation_j, 2e-3),
)


# The operators suite's check groups, one function each: a group evaluates
# inputs drawn before it and returns its checks (or, for a sampled draw,
# its deviations), so it runs as one task of the suite's list, and its
# whole-grid temporaries are freed before the worker takes the next task.

def _jop_checks(spec, psi, phi, jo, tol) -> list:
    checks = [check_from_devs(
        "jop-square", "J^2 = -I",
        [np.abs(jo(jo(psi)).values + psi.values).max()], 1e-14)]
    lhs = hilbert.inner(phi, jo(psi))
    rhs = hilbert.inner(jo(phi), psi)
    scale = hilbert.norm(phi) * hilbert.norm(psi)
    checks.append(check_from_devs(
        "jop-antihermitian", "inner(phi, J psi) = -inner(J phi, psi)",
        np.abs(lhs + rhs) / scale, tol))
    checks.append(check_from_devs(
        "jop-isometry", "|J psi| = |psi|",
        [abs(hilbert.norm(jo(psi)) - hilbert.norm(psi)) / hilbert.norm(psi)], tol))

    # [X_i, J] = 0: two left multipliers with a real factor
    xj = []
    for i in range(3):
        xi = ops.position(spec, i)
        diff = xi(jo(psi)).values - jo(xi(psi)).values
        xj.append(np.abs(diff).max() / (spec.box * np.abs(psi.values).max()))
    checks.append(check_from_devs(
        "position-j-commute", "[X_i, J] = 0 (roundoff only)", xj, 1e-14))
    return checks


def _imprimitivity_devs(spec, psi, interior, steps, boxes, s2s) -> list:
    """``(imprimitivity, shift-composition)`` deviations of the draws with
    the first steps ``steps``, one pair per drawn box and second steps."""
    v1 = ops.Shift(spec, steps)
    comp = [_bitexact_dev(v1(ops.Shift(spec, s2)(interior)),
                          ops.Shift(spec, steps + s2)(interior)) for s2 in s2s]
    return list(zip(_covariance_devs(spec, psi, steps, boxes), comp))


def _unitarity_dev(spec, interior, interior_norm, m) -> float:
    # twisted shifts: unitary on a field with interior support
    return abs(hilbert.norm(ops.twisted_shift(spec, m)(interior)) - interior_norm) / interior_norm


def _line_devs(spec, interior, unit, s_steps, t_steps) -> list:
    """``U(s u) U(t u) = U((s+t) u)`` deviations of the draws along the unit
    step ``u = unit``, one per draw's step counts ``(s, t)``.  Each line
    shift ``U(c u)`` is built once."""
    @cache
    def shift(c):
        return ops.twisted_shift(spec, c * unit)

    return [np.abs(shift(s)(shift(t)(interior)).values - shift(s + t)(interior).values).max()
            for s, t in zip(s_steps, t_steps)]


def _defect_devs(spec, ma, mb) -> tuple:
    _, sym, dev, pointwise = _closure_defect(spec, ma, mb)
    return dev, pointwise, quat.qnorm(sym - quat.E0).max()


def _parallel_checks(spec, tol) -> list:
    # parallel shifts close exactly
    par_dev = []
    core = ops.interior_block(spec, _PARALLEL_BAND)
    for unit in _AXES:
        sym = ops.symbol_of(ops.compose_defect(spec, 2 * unit, 3 * unit))
        par_dev.append(quat.qnorm(sym - quat.E0)[core].max())
    return [check_from_devs(
        "wpr-parallel-trivial", "m(a, b; x) = e0 for parallel a, b", par_dev, tol)]


def _analytic_draws(rng) -> tuple:
    """20 Gaussian fields, 12 probe points and 5 unit directions."""
    fields = _random_gaussian_fields(rng, 20)
    probes = _probe_points(rng)
    directions = []
    for _ in range(5):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        directions.append(u)
    return fields, probes, directions


def _analytic_checks(fields, probes, directions) -> list:
    # connection value spot check: u = e1 at x = (0,0,1) -> -e2/2
    conn = ops.connection_value(_AXES[0], np.array([0.0, 0.0, 1.0]))
    checks = [check_from_devs(
        "connection-value", "connection(e1)(0,0,1) = -e2/2",
        [np.abs(conn - np.array([0.0, 0.0, -0.5, 0.0])).max()], 1e-15)]

    # stencil identities on analytic fields, with Richardson ratios
    h = 0.02
    for name, law, fdev, tol_h in _STENCIL_IDENTITIES:
        devs_h = _worst(fdev(fields, probes, h))
        devs_h2 = _worst(fdev(fields, probes, h / 2.0))
        ratios = _richardson(devs_h, devs_h2)
        checks.append(check_from_devs(name, law + " (step h)", devs_h, tol_h))
        checks.append(check_from_devs(
            name + "-order", law + ": Richardson ratio h vs h/2 in 4 +/- 0.5",
            np.abs(ratios - 4.0), 0.5))

    # the first five fields of the batch
    checks.append(check_from_devs(
        "rotation-position", "[M_3, X_1] = -X_2",
        _worst(_dev_rotation_position(fields, probes, h))[:5], 2e-3))
    checks.append(check_from_devs(
        "spin-half-turn", "exp(2 pi M_3) = -I", _dev_spin_half_turn(fields, probes)[:5], 1e-12))

    # generator of the continuum twisted translations, (U(a) psi)(x) =
    # transport(a; x - a) psi(x - a), along a random direction u:
    # (U(su) psi - psi)/s -> -grad_u psi; the first five fields one at a
    # time, each with its own direction
    first = [lambda y, k=k: fields(y)[k] for k in range(5)]
    gen_dev_s, gen_dev_s2 = [], []
    s0 = 1e-3
    for fn, u in zip(first, directions):
        target = ops.covderiv_fn(fn, u, 1e-4)(probes)
        for s_val, out in ((s0, gen_dev_s), (s0 / 2.0, gen_dev_s2)):
            shifted = quat.qmul(geometry.transport(s_val * u, probes - s_val * u),
                                fn(probes - s_val * u))
            fd = (shifted - fn(probes)) / s_val
            out.append(quat.qnorm(fd + target).max())
    checks.append(check_from_devs(
        "twisted-generator", "(U(s u) psi - psi)/s -> -grad_u psi", gen_dev_s, 1e-2))
    checks.append(check_from_devs(
        "twisted-generator-order", "first-order convergence ratio in 2 +/- 0.5",
        np.abs(_richardson(gen_dev_s, gen_dev_s2) - 2.0), 0.5))
    return checks


def _hamiltonian_checks(spec, psi, phi, jo, smooth, ham, tol) -> list:
    # lattice Hamiltonian: hermitian, commutes with J at O(h^2), Ehrenfest form
    lhs = hilbert.inner(phi, ham(psi))[0]
    rhs = hilbert.inner(ham(phi), psi)[0]
    checks = [check_from_devs(
        "hamiltonian-hermitian", "inner(phi, H psi) = inner(H phi, psi)",
        [abs(lhs - rhs) / abs(lhs)], tol)]

    # the transported-hop forms make both splitting identities exact on the
    # lattice (roundoff only), strictly better than the O(h^2) bound that a
    # multiplier-connection discretization would give
    h_smooth = ham(smooth)
    hj = ham(jo(smooth)).values - jo(h_smooth).values
    checks.append(check_from_devs(
        "hamiltonian-j-commute", "[H, J] = 0, exact on the lattice",
        [quat.qnorm(hj).max() / np.abs(h_smooth.values).max()], 1e-12))

    ehr_dev = []
    for i in range(3):
        xi = ops.position(spec, i)
        comm = ham(xi(smooth)).values - xi(h_smooth).values
        target = -ops.covderiv(spec, i)(smooth).values
        ehr_dev.append(quat.qnorm(comm - target).max() / quat.qnorm(target).max())
    checks.append(check_from_devs(
        "hamiltonian-velocity", "[H, X_i] = -(1/m) grad_i, exact on the lattice",
        ehr_dev, 1e-12))

    bval = ops.symbol_of(ops.bfield_op(spec, 2))
    pts3 = spec.points()[..., 2]
    r = np.linalg.norm(spec.points(), axis=-1)
    checks.append(check_from_devs(
        "bfield-op", "B_3 symbol = x_3 / (2 |x|^3)",
        [np.abs(bval[..., 0] - 0.5 * pts3 / r**3).max()], 1e-14))
    return checks


def _adjoint_checks(spec, jo, interior, smooth, ham) -> list:
    # adjoint consistency on interior-supported fields
    adj_dev = []
    for op in (jo, ops.position(spec, 1), ops.left_unit(spec, 0),
               ops.Shift(spec, [2, -1, 0]), ops.Diff(spec, 1), ops.covderiv(spec, 2),
               ops.twisted_shift(spec, [1, 2, 0]), ham):
        lhs = hilbert.inner(interior, op(smooth))[0]
        rhs = hilbert.inner(op.adjoint()(interior), smooth)[0]
        adj_dev.append(abs(lhs - rhs) / max(abs(lhs), 1e-12))
    return [check_from_devs(
        "adjoint-consistency", "inner(phi, A psi) = inner(A* phi, psi)", adj_dev, 1e-10)]


def _wpr_checks(spec, psi, ham) -> list:
    # the frame operators as sums of the one-step twisted translations U_i^+-
    # = twisted_shift(+-e_i) of the weakened projective representation (H at
    # mass 1); the two sides share only the transport formula
    h = spec.step
    lap, cov_dev = 0.0, []
    for i, e in enumerate(_AXES):
        up, down = ops.twisted_shift(spec, e)(psi).values, ops.twisted_shift(spec, -e)(psi).values
        lap = lap + (up + down - 2.0 * psi.values)
        grad = ops.covderiv(spec, i)(psi).values
        cov_dev.append(quat.qnorm((down - up) / (2.0 * h) - grad).max() / quat.qnorm(grad).max())
    hpsi = ham(psi).values
    return [check_from_devs(
                "hamiltonian-wpr",
                "H = -(1/2m h^2) sum_i (U_i^+ + U_i^- - 2), exact on the lattice",
                [quat.qnorm(-lap / (2.0 * h**2) - hpsi).max() / quat.qnorm(hpsi).max()], 1e-12),
            check_from_devs(
                "covderiv-wpr", "grad_i = (U_i^- - U_i^+)/2h, exact on the lattice",
                cov_dev, 1e-12)]


def operators_suite(n: int = 32, box: float = 6.0, samples: int = 200,
                    seed: int = 42, tol: float = 1e-12) -> Report:
    samples = min(samples, 200)  # imprimitivity draws; the report states the count drawn
    spec = _suite_lattice(n, box, _PARALLEL_BAND)
    # built first, so that a lattice on which it vanishes is refused before any check
    smooth = hilbert.sample(
        spec, hilbert.gaussian_field((1.5, 0.8, -0.6), 1.0, (1.0, 0.3, -0.2, 0.5)))
    smooth_norm = hilbert.norm(smooth)
    if smooth_norm == 0.0:
        raise ValueError("the suite's smooth Gaussian underflows to norm 0 on this lattice; "
                         "take a smaller box")
    smooth = LatticeField(spec, smooth.values / smooth_norm)
    rng = np.random.default_rng(seed)
    rep = Report(suite="operators", seed=seed, n_samples=samples)
    psi = LatticeField(spec, rng.standard_normal((n, n, n, 4)))
    phi = LatticeField(spec, rng.standard_normal((n, n, n, 4)))
    # fields with an empty band at the walls: shifts act without clipping
    interior = hilbert.project(
        hilbert.Box.of((-box * 0.55,) * 3, (box * 0.55,) * 3), psi)
    # every draw, in the order of the groups' checks: imprimitivity (steps,
    # box, second steps), twisted lines (steps, then an axis and the line's
    # two step counts), closure defects, analytic fields
    shift_draws = [(*_covariance_draw(rng, spec), _sample_steps(rng, spec, 1, 3)[0])
                   for _ in range(samples)]
    twisted_draws = [(_sample_steps(rng, spec, 1, 3)[0], int(rng.integers(0, 3)),
                      int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in range(20)]
    defect_draws = [_sample_steps(rng, spec, 2, 2) for _ in range(10)]
    fields, probes, directions = _analytic_draws(rng)

    jo, ham = ops.jop(spec), ops.hamiltonian(spec, 1.0)
    interior_norm = hilbert.norm(interior)
    shift_tasks, shift_groups = _step_group_tasks(
        shift_draws, partial(_imprimitivity_devs, spec, psi, interior))
    # the twisted lines grouped by axis, keyed by the line's unit step
    line_tasks, line_groups = _step_group_tasks(
        [(_AXES[ax], s, t) for _, ax, s, t in twisted_draws], partial(_line_devs, spec, interior))
    # longest first: the whole-field groups, the line groups, then the sampled draws
    ham_c, par_c, analytic_c, wpr_c, jop_c, adj_c, *devs = runner.run_tasks([
        partial(_hamiltonian_checks, spec, psi, phi, jo, smooth, ham, tol),
        partial(_parallel_checks, spec, tol),
        partial(_analytic_checks, fields, probes, directions),
        partial(_wpr_checks, spec, psi, ham),
        partial(_jop_checks, spec, psi, phi, jo, tol),
        partial(_adjoint_checks, spec, jo, interior, smooth, ham),
        *line_tasks,
        *(partial(_defect_devs, spec, *d) for d in defect_draws),
        *(partial(_unitarity_dev, spec, interior, interior_norm, d[0]) for d in twisted_draws),
        *shift_tasks])
    line_devs, devs = devs[:len(line_tasks)], devs[len(line_tasks):]
    defect_devs, devs = devs[:len(defect_draws)], devs[len(defect_draws):]
    unit_devs, devs = devs[:len(twisted_draws)], devs[len(twisted_draws):]

    rep.checks += jop_c
    # imprimitivity, multiplied-through form, bit-exact
    rep.checks += _rows(
        _in_draw_order(shift_groups, devs),
        ("imprimitivity", "U(a) E(box) = E(box+a) U(a), bit-exact", 0.0),
        ("shift-composition", "V(a) V(b) = V(a+b), bit-exact", 0.0))
    rep.checks += _rows(
        zip(unit_devs, _in_draw_order(line_groups, line_devs)),
        ("twisted-unitarity", "|U(a) psi| = |psi| (interior support)", tol),
        ("one-parameter-line", "U(s u) U(t u) = U((s+t) u)", tol))
    # closure defects: pointwise, with the transport-product symbol; WPR off a line
    rep.checks += _rows(
        [d[:2] for d in defect_devs],
        ("defect-symbol", "U(a+b)* U(a) U(b) has symbol w(a+b;x)* w(a;x+b) w(b;x)", tol),
        ("defect-pointwise", "closure defect is a pointwise multiplier", 0.0))
    wpr_size = [d[2] for (ma, mb), d in zip(defect_draws, defect_devs) if np.cross(ma, mb).any()]
    rep.checks.append(check_from_devs(
        "wpr-nontrivial", "generic closure defect differs from the identity",
        [0.0 if (min(wpr_size) > 1e-3) else 1.0], 0.0))
    rep.checks += par_c + analytic_c + ham_c + adj_c + wpr_c
    return rep


# ---------------------------------------------------------------------------
# splitting suite

# Like the operators suite, the splitting suite runs its check groups one
# function each, each returning its checks.

def _split_devs(spec: LatticeSpec, psi: LatticeField) -> tuple:
    """The six split deviations of one drawn field, checked at unit norm."""
    w, wt = quat.E3, quat.E1  # the slice and its complement
    psi = LatticeField(spec, psi.values / hilbert.norm(psi))
    pair = splitting.split(psi)
    rec_dev = np.abs(splitting.reconstruct(pair).values - psi.values).max()
    n0 = hilbert.norm(psi) ** 2
    n1 = hilbert.norm(pair.psi1) ** 2
    n2 = hilbert.norm(pair.psi2) ** 2
    memb_dev = max(splitting.slice_residual(pair.psi1), splitting.slice_residual(pair.psi2))
    # orthogonality of the decomposition: inner(psi1, psi2 wt) has no slice
    # component (real part and omega component vanish)
    cross = hilbert.inner(pair.psi1, hilbert.rscale(pair.psi2, wt))
    # inner product of two slice members lands in the slice field
    q12 = hilbert.inner(pair.psi1, pair.psi2)
    perp = q12 - q12[0] * quat.E0 - np.sum(q12 * w) * w
    return (rec_dev, abs(n0 - n1 - n2), memb_dev, abs(cross[0]), abs(np.sum(cross * w)),
            quat.qnorm(perp))


# The split loop draws one whole grid per sample, about 1 MiB at n=32, so it
# does not draw all its fields ahead like the gis and operators loops.  It
# cuts the samples into one contiguous run per worker instead.  Each run
# starts the suite generator from the seed: it draws the fields of the runs
# before it into one reused buffer (the same draws, so the same generator
# state), then draws and checks its own fields.  The last run goes on to the
# member checks, which draw what a draw-then-check loop leaves them.

def _split_run(seed, spec: LatticeSpec, start: int, stop: int, samples: int) -> tuple:
    """The split deviations of samples ``start`` to ``stop`` of ``samples``,
    and the member checks if ``stop == samples`` (else none)."""
    shape = (spec.n,) * 3 + (4,)
    gen = np.random.default_rng(seed)
    skipped = np.empty(shape)
    for _ in range(start):
        gen.standard_normal(out=skipped)
    del skipped
    devs = [_split_devs(spec, LatticeField(spec, gen.standard_normal(shape)))
            for _ in range(start, stop)]
    return devs, _member_checks(gen, spec) if stop == samples else []


def _member_checks(rng, spec) -> list:
    # slice members already in the slice split as (psi, 0)
    member = splitting.random_slice_member(spec, rng)
    pair = splitting.split(member)
    # right multiplication by slice scalars stays in the slice
    z = 0.7 * quat.E0 + 0.3 * quat.E3
    return [check_from_devs(
                "split-of-member", "psi in slice -> split(psi) = (psi, 0)",
                [np.abs(pair.psi1.values - member.values).max(),
                 np.abs(pair.psi2.values).max()], 1e-14),
            check_from_devs(
                "slice-linear", "psi in slice -> psi z in slice for z = u + v omega",
                [splitting.slice_residual(hilbert.rscale(member, z))], 1e-12)]


def _reduce_checks(spec, seed) -> list:
    # each reduce check holds its inputs to slice membership too: a sampler
    # that stopped drawing slice members would fail them, not pass vacuously;
    # all three take their members from one fresh generator
    members_rng = np.random.default_rng(seed)
    members = [splitting.random_slice_member(spec, members_rng) for _ in range(5)]
    before, after = splitting.reduce_check(ops.twisted_shift(spec, [2, 1, 0]), members)
    checks = [check_from_devs(
        "reduce-twisted-shift", "U(a) preserves the slice",
        [max(before.max(), after.max())], 1e-12)]

    before, after = splitting.reduce_check(ops.hamiltonian(spec, 1.0), members)
    checks.append(check_from_devs(
        "reduce-hamiltonian", "H preserves the slice (exact for hop links)",
        [max(before.max(), after.max())], 1e-12))

    before, after = splitting.reduce_check(ops.left_unit(spec, 0), members[:3])
    checks.append(check_from_devs(
        "reduce-negative-control", "bare e1 multiplier does NOT reduce (residual order 1)",
        [0.0 if before.max() <= 1e-12 and after.max() > 0.1 else 1.0], 0.0))
    return checks


def splitting_suite(n: int = 32, box: float = 6.0, samples: int = 200,
                    seed: int = 42) -> Report:
    samples = min(samples, 200)  # the report states the count drawn
    rep = Report(suite="splitting", seed=seed, n_samples=samples)
    spec = LatticeSpec(n=n, box=box)
    runs = max(1, min(runner.cores(), samples))
    bounds = [(k * samples // runs, (k + 1) * samples // runs) for k in range(runs)]
    # longest first: a run also replays the fields of the runs before it, so
    # the last run, with the member checks, goes first; the reduce checks,
    # with their own generator, go last
    *split_runs, reduce_c = runner.run_tasks(
        [partial(_split_run, seed, spec, *b, samples) for b in reversed(bounds)]
        + [partial(_reduce_checks, spec, seed)])
    split_runs.reverse()
    rep.checks += _rows(
        [d for devs, _ in split_runs for d in devs],
        ("reconstruction", "psi1 + psi2 omega_tilde = psi", 1e-14),
        ("norm-additivity", "|psi|^2 = |psi1|^2 + |psi2|^2", 1e-12),
        ("slice-membership", "J psi_k = psi_k omega", 1e-14),
        ("orthogonality-real", "Re inner(psi1, psi2 omega_tilde) = 0", 1e-12),
        ("orthogonality-slice", "slice part of inner(psi1, psi2 omega_tilde) = 0", 1e-12),
        ("inner-in-slice", "inner on the slice takes slice-field values", 1e-12))
    rep.checks += split_runs[-1][1] + reduce_c
    return rep


# ---------------------------------------------------------------------------
# gis suite

def _closure_devs(spec, psi, ma, mb, box) -> tuple:
    defect, sym, dev, pointwise = _closure_defect(spec, ma, mb)
    lhs = defect(hilbert.project(box, psi))
    rhs = hilbert.project(box, defect(psi))
    return (dev, pointwise, float(np.abs(quat.qnorm(sym) - 1.0).max()),
            _bitexact_dev(lhs, rhs))


def gis_suite(n: int = 32, box: float = 6.0, samples: int = 10000,
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
    cov_draws = [_covariance_draw(rng, spec) for _ in range(samples)]
    # a step pair, then a box for the multiplier's commutation
    closure_draws = [(*_sample_steps(rng, spec, 2, 2), _sample_box(rng, spec))
                     for _ in range(max(1, samples // 50))]
    cov_tasks, cov_groups = _step_group_tasks(cov_draws, partial(_covariance_devs, spec, psi))
    # longest first: a closure defect, then the covariance groups
    devs = runner.run_tasks([partial(_closure_devs, spec, psi, *d) for d in closure_draws]
                      + cov_tasks)
    rep.checks.append(check_from_devs(
        "covariance", "U(a) E(box) = E(box+a) U(a), bit-exact",
        _in_draw_order(cov_groups, devs[len(closure_draws):]), 0.0))
    rep.checks += _rows(
        devs[:len(closure_draws)],
        ("composition-defect", "symbol of U(a+b)* U(a) U(b) = w(a+b;x)* w(a;x+b) w(b;x)", 1e-12),
        ("defect-pointwise", "closure defect has zero net displacement", 0.0),
        ("multiplier-unit", "|m(a,b;x)| = 1", 1e-12),
        ("multiplier-commutes", "M(a,b) E(box) = E(box) M(a,b), bit-exact", 0.0))

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
