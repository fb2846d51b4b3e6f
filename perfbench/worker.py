"""One benchmark process: set-up, measured run or traced run of a workload.

    python3 perfbench/worker.py {setup|unit|trace} WORKLOAD SEED UNITS OUTDIR

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the thread
variables pinned.  ``setup`` and ``unit`` measure one set-up or one unit
in a fresh process, so no cache carries over between them and the peak RSS
belongs to that unit; ``trace`` runs UNITS traced units and then one
untraced unit.  The last stdout line is a JSON object with the results.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before any import: set-up includes the imports

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qmono  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402

T_IMPORTED = time.perf_counter()
STEP = "dynamics.CayleyEvolver.step"
clock = time.perf_counter


def l3_bytes() -> int | None:
    """Last-level cache size as ``getconf`` reports it (None if unknown)."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(params: dict, seed: int) -> dict:
    outcome = workloads.Outcome()
    try:
        workloads.prepare(params, seed)
        outcome.attempted += 1
    except Exception:  # report the failed set-up instead of dying silently
        outcome.add_error("setup")
    return {"setup_s": clock() - T0, "import_s": T_IMPORTED - T0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "failures": outcome.failures}


def unit(params: dict, seed: int, outdir: str) -> dict:
    outcome = workloads.Outcome()
    t0 = clock()
    info = workloads.run_unit(params, seed, outdir, outcome, clock)
    return {"wall_s": clock() - t0, **info, "attempted": outcome.attempted,
            "failed": outcome.failed, "tol_used": outcome.tol_used,
            "failures": outcome.failures, "peak_rss_mb": peak_rss_mib(),
            "env": environment()}


def per_layer(tracer: spans.Tracer, stats: dict, traced_walls: list, wall_plain: float,
              tol_used: float, io_bytes: int) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``: counts and times per
    traced unit, step percentiles over all traced steps."""
    k = len(traced_walls)
    steps = sorted(spans.durations(tracer.spans, STEP))

    def per_unit(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0) / k

    m = {
        "dynamics.cg_iters_per_step": (tracer.cg_iters / len(steps) if steps else 0.0, "count"),
        "dynamics.step.self_s": (per_unit(STEP, "self_s"), "s"),
        "dynamics.step_ms.p50": (1e3 * statistics.median(steps) if steps else 0.0, "ms"),
        "dynamics.step_ms.tail": (1e3 * steps[spans.tail_index(len(steps))] if steps else 0.0,
                                  "ms"),
        "dynamics.evolve.self_s": (per_unit("dynamics.evolve", "self_s"), "s"),
    }
    for name in ("dynamics.build_generator_matrix", "dynamics.build_hamiltonian_matrix",
                 "dynamics.build_gradient_matrices", "operators._hop_links",
                 "operators._steps_admissible"):
        m[f"{name}.s"] = (per_unit(name, "incl_s"), "s")
    for name, span in (("geometry.transport",) * 2,
                       ("geometry.segment_origin_distance",) * 2,
                       ("quat.qmul",) * 2,
                       ("operators.apply", "operators.Operator.__call__")):
        m[f"{name}.calls"] = (per_unit(span, "calls"), "count")
        m[f"{name}.self_s"] = (per_unit(span, "self_s"), "s")
    for name in ("hilbert.project", "hilbert.inner", "splitting.split",
                 "splitting.slice_residual"):
        m[f"{name}.self_s"] = (per_unit(name, "self_s"), "s")
    m["operators.build.self_s"] = (sum(
        per_unit(f"operators.{b}", "self_s")
        for b in ("twisted_shift", "transport_op", "compose_defect", "hamiltonian")), "s")
    for suite in ("geometry", "gis", "operators", "splitting"):
        m[f"verify.{suite}.s"] = (per_unit(f"verify.{suite}_suite", "incl_s"), "s")
        m[f"verify.{suite}.self_s"] = (per_unit(f"verify.{suite}_suite", "self_s"), "s")
    m["report.write.s"] = (per_unit("report.Report.write", "incl_s"), "s")
    m["io.bytes"] = (io_bytes, "bytes")
    m["report.tol_used"] = (tol_used, "ratio")
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (sum(s["self_s"] for name, s in stats.items()
                                    if name.startswith(layer + ".")) / k, "s")
    m["trace.overhead_ratio"] = (statistics.median(traced_walls) / wall_plain, "ratio")
    m["trace.outside_spans_s"] = ((sum(traced_walls) - spans.covered_s(tracer.spans)) / k, "s")
    m["trace.zero_call"] = (sum(1 for name in tracer.wrapped if name not in stats), "count")
    return m


def trace(params: dict, seed: int, units: int, outdir: str) -> dict:
    """``units`` traced units, then one untraced unit for the overhead ratio;
    it runs last so that, like all but the first traced unit, it runs warm."""
    outcome = workloads.Outcome()
    tracer = spans.Tracer()
    walls = []
    with tracer.installed(qmono):
        for _ in range(units):
            t0 = clock()
            info = workloads.run_unit(params, seed, outdir, outcome, clock)
            walls.append(clock() - t0)
    t0 = clock()
    workloads.run_unit(params, seed, outdir, outcome, clock)
    wall_plain = clock() - t0
    stats = spans.span_stats(tracer.spans)
    metrics = per_layer(tracer, stats, walls, wall_plain, outcome.tol_used, info["io_bytes"])
    coverage = spans.coverage_report(tracer, stats, sum(walls))
    with open(os.path.join(outdir, "trace.json"), "w") as fh:
        json.dump({"spans": tracer.spans, "wrapped": tracer.wrapped,
                   "aliases": tracer.aliases, "cg_iters": tracer.cg_iters}, fh)
    with open(os.path.join(outdir, "coverage.txt"), "w") as fh:
        fh.write(coverage + "\n")
    return {"metrics": metrics, "coverage": coverage, "attempted": outcome.attempted,
            "failed": outcome.failed, "failures": outcome.failures, "env": environment()}


def main(argv) -> int:
    mode, name, seed, units, outdir = argv
    src = os.path.abspath("src")
    if not os.path.abspath(qmono.__file__).startswith(src + os.sep):
        print(f"qmono imported from {qmono.__file__}, not from {src}", file=sys.stderr)
        return 2
    params = workloads.WORKLOADS[name]
    seed = int(seed)
    if mode == "setup":
        result = setup(params, seed)
    elif mode == "unit":
        result = unit(params, seed, outdir)
    else:
        result = trace(params, seed, int(units), outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
