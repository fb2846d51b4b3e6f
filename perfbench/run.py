"""qmono benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {flyby-n48,free-n36,verify-n32}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the program is imported from ``src``).
``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs one unit untraced and one traced and prints the
per-layer metrics and the coverage of the wrapped functions.  Every run
checks the program's outputs; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# nominal wall time of one unit of each workload on a two-core x86-64
# machine; a run of S seconds measures round(S / unit time) units, at least one
UNIT_S = {"flyby-n48": 7.0, "free-n36": 5.4, "verify-n32": 20.0}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


def pinned_env() -> dict:
    """Environment for the worker: ``src`` first on the path and one BLAS
    or OpenMP thread.  The workloads' time is in single-threaded numpy and
    scipy.sparse code; a second BLAS thread only speeds up CG's vector
    reductions and, on a shared two-core machine, made wall times spread
    three times wider."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def worker(mode: str, args, units: int, env: dict, deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    outdir = os.path.join(HERE, "out", args.workload)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), str(units), outdir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker '{mode}' exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list, units: list) -> dict:
    """End-to-end metrics (BENCHMARK.json ``end_to_end``) of an untraced run."""
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(u["wall_s"] for u in units), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MiB"),
    }


def detail_lines(setups: list, units: list) -> list:
    """Workload-specific figures printed next to the metrics: Cayley steps
    per second with the set-up share of an evolve call subtracted, or the
    wall time of each suite; the tolerance use and the failed share."""
    prep = statistics.median(s["setup_s"] - s["import_s"] for s in setups)
    lines = []
    for i, u in enumerate(units, 1):
        line = f"unit {i}: wall_s={u['wall_s']:.4f} s  "
        if "steps" in u:
            rate = u["steps"] / (u["wall_s"] - prep) if u["wall_s"] > prep else 0.0
            line += (f"steps_per_s={rate:.4f} 1/s ({u['steps']} steps, "
                     f"{prep:.3f} s of set-up subtracted)")
        else:
            line += "  ".join(f"suite_s.{k}={v:.4f} s" for k, v in u["suite_s"].items())
        lines.append(line)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    lines.append(f"tol_used={max(u['tol_used'] for u in units):.6g} ratio  "
                 f"failed_ratio={failed / attempted if attempted else 0:.4g} "
                 f"({failed}/{attempted})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(UNIT_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "qmono", "__init__.py")):
        print("no qmono source tree at src/qmono: run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env()
    units = max(1, round(args.seconds / UNIT_S[args.workload]))
    try:
        if args.trace:
            traced = worker("trace", args, units, env, deadline)
            metrics, runs = traced["metrics"], [traced]
        else:
            setups = [worker("setup", args, 0, env, deadline) for _ in range(SETUP_REPEATS)]
            measured = [worker("unit", args, 1, env, deadline) for _ in range(units)]
            metrics, runs = end_to_end(setups, measured), setups + measured
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1

    print("env " + json.dumps(runs[-1]["env"], sort_keys=True))
    if args.trace:
        print(traced["coverage"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} units={units}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        for line in detail_lines(setups, measured):
            print("  " + line)
    for r in runs:
        for f in r["failures"]:
            print(f"  FAILED {f}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
