"""Kernel sweep: the per-layer baseline table in one command.

    python3 perfbench/sweep.py

Run from the repository root.  For each lattice row -- n=16, (n=32,
dt=0.02), (n=36, dt=0.1) and (n=48, dt=0.02) -- it times ``quat.qmul`` over
an n^3 field, ``geometry.transport`` over the grid,
``build_generator_matrix``, one generator matvec and a steady-state
``CayleyEvolver.step``, and reports the generator's nonzeros, the CG
iterations per step and the matvec's computed bytes and operations per
byte.  In the same run it measures sustainable memory bandwidth with a copy
between two arrays of at least four times the L3 size and states both
sizes.  Prints a table and writes ``perfbench/out/sweep.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run

os.environ.update(run.pinned_env())
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

from qmono import dynamics, geometry, quat  # noqa: E402
from qmono.hilbert import LatticeSpec  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402

# (n, dt, preset): dt=0.02 rows use the flyby preset's lattice and mass,
# the dt=0.1 row the free preset's
ROWS = ((16, 0.02, "monopole_flyby_config"), (32, 0.02, "monopole_flyby_config"),
        (36, 0.1, "free_flight_config"), (48, 0.02, "monopole_flyby_config"))
STEPS = 4  # the first step has no warm start; the rest are steady state
clock = time.perf_counter


def timed(fn, repeats: int) -> tuple:
    """Median wall time of ``repeats`` calls and the last result."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    return statistics.median(times), out


def copy_bandwidth(l3: int) -> dict:
    """Bytes per second of ``np.copyto`` between arrays >= 4x the L3 size
    (read plus write counted once each)."""
    size = max(4 * l3, 256 << 20)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    t, _ = timed(lambda: np.copyto(dst, src), 5)
    return {"array_bytes": src.nbytes, "l3_bytes": l3, "bytes_per_s": 2 * src.nbytes / t}


def matvec_bytes(mat, n_rows: int) -> int:
    """Computed bytes of one CSR matvec: values, column indices and row
    pointers read once, the input vector read once, the output written once
    (cache misses on the input vector are not counted)."""
    return (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes + 16 * n_rows)


def row(n: int, dt: float, preset: str, rng) -> dict:
    cfg = getattr(dynamics, preset)(n=n, dt=dt)
    spec: LatticeSpec = cfg.lattice
    pts = spec.points()
    p, q = rng.standard_normal((2, n, n, n, 4))
    t_qmul, _ = timed(lambda: quat.qmul(p, q), 5)
    shift = np.array([spec.step, 0.0, 0.0])
    t_transport, _ = timed(lambda: geometry.transport(shift, pts), 5)
    t_build, gen = timed(lambda: dynamics.build_generator_matrix(spec, cfg.mass), 1)
    v = rng.standard_normal(gen.shape[0])
    t_matvec, _ = timed(lambda: gen @ v, 10)
    nbytes = matvec_bytes(gen, gen.shape[0])

    tracer = spans.Tracer()
    original = dynamics.cg
    dynamics.cg = tracer.count_cg(original)
    try:
        evolver = dynamics.CayleyEvolver(spec, cfg.mass, cfg.dt, cfg.solver_rtol)
        psi = dynamics.gaussian_packet(spec, cfg.center, cfg.sigma, cfg.kick, cfg.omega)
        psi = evolver.step(psi)
        tracer.cg_iters = 0
        step_times = []
        for _ in range(STEPS - 1):
            t0 = clock()
            psi = evolver.step(psi)
            step_times.append(clock() - t0)
    finally:
        dynamics.cg = original
    return {
        "n": n, "dt": dt, "mass": cfg.mass,
        "qmul_ms": 1e3 * t_qmul,
        "transport_ms": 1e3 * t_transport,
        "build_generator_s": t_build,
        "nnz": int(gen.nnz),
        "matvec_ms": 1e3 * t_matvec,
        "matvec_bytes": nbytes,
        "matvec_ops_per_byte": 2 * gen.nnz / nbytes,
        "matvec_bytes_per_s": nbytes / t_matvec,
        "step_ms": 1e3 * statistics.median(step_times),
        "cg_iters_per_step": tracer.cg_iters / len(step_times),
    }


def main() -> int:
    env = worker.environment()
    print("env " + json.dumps(env, sort_keys=True))
    bandwidth = copy_bandwidth(env["l3_bytes"] or 0)
    print(f"sustainable bandwidth (copy): {bandwidth['bytes_per_s'] / 1e9:.2f} GB/s with "
          f"{bandwidth['array_bytes'] / 2**20:.0f} MiB arrays (L3 "
          f"{bandwidth['l3_bytes'] / 2**20:.0f} MiB)")
    rng = np.random.default_rng(0)
    rows = []
    print("| n | dt | qmul ms | transport ms | build gen s | nnz | matvec ms | "
          "matvec MB | ops/byte | matvec GB/s | of copy | step ms | CG iters |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for n, dt, preset in ROWS:
        r = row(n, dt, preset, rng)
        rows.append(r)
        print(f"| {n} | {dt} | {r['qmul_ms']:.2f} | {r['transport_ms']:.2f} | "
              f"{r['build_generator_s']:.3f} | {r['nnz'] / 1e6:.2f}M | {r['matvec_ms']:.2f} | "
              f"{r['matvec_bytes'] / 1e6:.1f} | {r['matvec_ops_per_byte']:.3f} | "
              f"{r['matvec_bytes_per_s'] / 1e9:.2f} | "
              f"{r['matvec_bytes_per_s'] / bandwidth['bytes_per_s']:.0%} | "
              f"{r['step_ms']:.1f} | {r['cg_iters_per_step']:.1f} |", flush=True)
    out = os.path.join(run.HERE, "out", "sweep.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"env": env, "bandwidth": bandwidth, "rows": rows}, fh, indent=2)
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
