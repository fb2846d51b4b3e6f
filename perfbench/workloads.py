"""The benchmark's workloads and the correctness gate applied to every run.

A workload's unit of work goes through qmono's public entry points
(``dynamics.evolve`` and ``dynamics.ehrenfest``, or the ``verify`` suites);
``run.py`` measures each unit in a worker process of its own.  Inputs come
from the seed only: the evolve workloads jitter the preset packet centre,
the verify workload seeds every suite.

Why these three (see README.md for the numbers):

* ``flyby-n48`` -- the flyby preset at n=48 with forces recorded: the
  largest working set (a 10.2M-nonzero generator, larger than L3) and a
  heavy observables row, so sparse-matvec bytes, observables and assembly
  show here.
* ``free-n36`` -- the free preset at n=36, dt=0.1, no forces: the same
  dynamics layer dominated by CG iterations, with a generator that fits in
  L3 and cheap observables.
* ``verify-n32`` -- the geometry, gis, operators and splitting suites at
  n=32: transport, admissibility, projections, stencil operators, ``split``
  and the rejection samplers; no sparse matrix and no CG.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import traceback

import numpy as np

from qmono import dynamics, verify

# the norm-drift limit `qmono evolve` applies before it exits 0
NORM_DRIFT_LIMIT = 1e-9
CENTRE_JITTER = 0.03

WORKLOADS = {
    "flyby-n48": {"preset": "monopole_flyby_config", "n": 48, "steps": 10},
    "free-n36": {"preset": "free_flight_config", "n": 36, "steps": 10},
    "verify-n32": {"n": 32, "suites": {"geometry": 10000, "gis": 120, "operators": 500,
                                       "splitting": 100}},
}

# the same workloads at a size that runs in about a second each
TINY = {
    "flyby-n48": {"preset": "monopole_flyby_config", "n": 16, "steps": 4},
    "free-n36": {"preset": "free_flight_config", "n": 16, "steps": 4},
    "verify-n32": {"n": 16, "suites": {"geometry": 100, "gis": 4, "operators": 4,
                                       "splitting": 2}},
}


@dataclasses.dataclass
class Outcome:
    """Gate tally: checks attempted and failed, and the worst tolerance use."""

    attempted: int = 0
    failed: int = 0
    tol_used: float = 0.0
    failures: list = dataclasses.field(default_factory=list)

    def add_check(self, label: str, max_dev: float, tol: float, passed: bool) -> None:
        self.attempted += 1
        if tol > 0.0:
            self.tol_used = max(self.tol_used, max_dev / tol)
        if not passed:
            self.failed += 1
            self.failures.append(f"{label}: max_dev={max_dev:.3e} tol={tol:.1e}")

    def add_report(self, rep) -> None:
        for c in rep.checks:
            self.add_check(f"{rep.suite}/{c.name}", c.max_dev, c.tol, c.passed)

    def add_error(self, label: str) -> None:
        """Count the exception being handled as one failed operation."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{label}: {sys.exc_info()[1]!r}")
        traceback.print_exc(file=sys.stderr)


def evolve_config(params: dict, seed: int, steps: int) -> dynamics.EvolutionConfig:
    """The preset at the workload's size with a seed-jittered packet centre."""
    cfg = getattr(dynamics, params["preset"])(n=params["n"], steps=steps)
    rng = np.random.default_rng(seed)
    centre = np.asarray(cfg.center) + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, 3)
    return dataclasses.replace(cfg, center=tuple(float(c) for c in centre))


def is_evolve(params: dict) -> bool:
    return "preset" in params


def prepare(params: dict, seed: int) -> None:
    """The set-up an evolve call does before its first step: generator,
    observables and packet assembly plus the initial row (``steps=0``).
    The verify suites build nothing ahead of their sampling loops."""
    if is_evolve(params):
        dynamics.evolve(evolve_config(params, seed, steps=0))


def suite_calls(params: dict, seed: int) -> list:
    n, samples = params["n"], params["suites"]
    return [
        ("geometry", lambda: verify.geometry_suite(samples=samples["geometry"], seed=seed)),
        ("gis", lambda: verify.gis_suite(n=n, samples=samples["gis"], seed=seed)),
        ("operators", lambda: verify.operators_suite(n=n, samples=samples["operators"],
                                                     seed=seed)),
        ("splitting", lambda: verify.splitting_suite(n=n, samples=samples["splitting"],
                                                     seed=seed)),
    ]


def run_suites(calls, outdir: str, outcome: Outcome, clock) -> dict:
    """Run ``(name, call)`` pairs, gate each report and write it; a suite
    that raises is counted as failed and the rest still run.  Returns the
    wall time per suite and the bytes written."""
    walls, written = {}, 0
    for name, call in calls:
        t0 = clock()
        try:
            rep = call()
        except Exception:  # a failing suite must not stop the others
            outcome.add_error(name)
            walls[name] = clock() - t0
            continue
        walls[name] = clock() - t0
        outcome.add_report(rep)
        written += _write(rep.write, os.path.join(outdir, f"{name}-report.json"))
    return {"suite_s": walls, "io_bytes": written}


def _write(writer, path: str) -> int:
    writer(path)
    return os.path.getsize(path)


def run_evolve(params: dict, seed: int, outdir: str, outcome: Outcome) -> dict:
    """One evolve run plus what ``qmono evolve`` checks and writes after it.
    Returns the steps taken and the bytes written."""
    cfg = evolve_config(params, seed, steps=params["steps"])
    try:
        traj, _ = dynamics.evolve(cfg)
    except Exception:  # e.g. a solver RuntimeError: count it, keep running
        outcome.add_error("evolve")
        return {"steps": 0, "io_bytes": 0}
    drift = float(np.abs(traj.norm - traj.norm[0]).max())
    outcome.add_check("evolve/norm-drift", drift, NORM_DRIFT_LIMIT, drift <= NORM_DRIFT_LIMIT)
    written = _write(traj.save_csv, os.path.join(outdir, "trajectory.csv"))
    try:
        rep = dynamics.ehrenfest(traj)
    except ValueError:
        outcome.add_error("ehrenfest")
        return {"steps": cfg.steps, "io_bytes": written}
    outcome.add_report(rep)
    written += _write(rep.write, os.path.join(outdir, "trajectory-report.json"))
    return {"steps": cfg.steps, "io_bytes": written}


def run_unit(params: dict, seed: int, outdir: str, outcome: Outcome, clock) -> dict:
    """One unit of the workload; returns what it did (steps or suite walls)
    and the bytes it wrote."""
    os.makedirs(outdir, exist_ok=True)
    if is_evolve(params):
        return run_evolve(params, seed, outdir, outcome)
    return run_suites(suite_calls(params, seed), outdir, outcome, clock)
