"""Command-line driver: verification suites, Chern quadrature, evolution.

Exit codes: 0 all checks within tolerance, 1 identity failure (or solver
failure), 2 usage error (an unwritable output path included).  Reports are
JSON with a stable layout (the timestamp is an isolated top-level key);
trajectories and convergence tables are CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from . import dynamics, geometry
from .hilbert import LatticeSpec
from .verify import SUITES


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qmono",
        description="Verification toolkit for monopole quantum mechanics "
                    "on a quaternionic lattice.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run an identity suite and write a JSON report")
    pv.add_argument("suite", choices=sorted(SUITES))
    # left unset (None), these take the defaults in the suite's signature
    pv.add_argument("--samples", type=int, help="random samples per check (operators, splitting: <= 200)")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--n", type=int, help="lattice points per axis (gis, operators, splitting)")
    pv.add_argument("--box", type=float, help="lattice half-width (gis, operators, splitting)")
    pv.add_argument("--tol", type=float, help="algebraic tolerance (algebra, geometry, operators)")
    pv.add_argument("--out", default=None, help="report path (default qmono-<suite>-report.json)")
    pv.add_argument("--json", action="store_true", help="also print the report to stdout")

    pc = sub.add_parser("chern", help="sphere quadrature of the curvature two-form")
    pc.add_argument("--n", type=int, default=256, help="largest polar grid in the refinement table")
    pc.add_argument("--radius", type=float, default=1.0)
    pc.add_argument("--tol", type=float, default=1e-6)
    pc.add_argument("--out", default=None, help="write the convergence table as CSV")
    pc.add_argument("--json", action="store_true", help="print the table as JSON")

    pe = sub.add_parser("evolve", help="run a wavepacket and check the Ehrenfest laws")
    pe.add_argument("--preset", choices=("free", "flyby"), default="free")
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--box", type=float, default=None)
    pe.add_argument("--mass", type=float, default=None)
    pe.add_argument("--dt", type=float, default=None)
    pe.add_argument("--steps", type=int, default=None)
    pe.add_argument("--out", default="trajectory.csv", help="trajectory CSV path")
    pe.add_argument("--json", action="store_true", help="print the Ehrenfest report to stdout")
    return p


def cmd_verify(args, out: str) -> int:
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be at least 1")
    suite = SUITES[args.suite]
    options = {k: getattr(args, k) for k in ("samples", "seed", "n", "box", "tol")
               if getattr(args, k) is not None}
    for k in options:
        if k not in inspect.signature(suite).parameters:
            raise ValueError(f"the {args.suite} suite does not read --{k}")
    if "tol" in options and not 0.0 < args.tol < np.inf:
        raise ValueError("--tol must be positive and finite")
    rep = suite(**options)
    rep.write(out)
    if args.json:
        print(rep.to_json())
    for c in rep.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:28s} max_dev={c.max_dev:.3e} tol={c.tol:.1e}")
    if not rep.passed:
        worst = rep.worst()
        print(f"FAILED: worst offender '{worst.name}' ({worst.law}): "
              f"max_dev={worst.max_dev:.3e} > tol={worst.tol:.1e}", file=sys.stderr)
        return 1
    print(f"suite '{args.suite}' passed; report written to {out}")
    return 0


def cmd_chern(args, out: str | None = None) -> int:
    if args.n < 8:
        raise ValueError("--n must be at least 8")
    if not 0.0 < args.tol < np.inf:
        raise ValueError("--tol must be positive and finite")
    grids = [8]
    while grids[-1] * 2 <= args.n:
        grids.append(grids[-1] * 2)
    rows = []
    target = 2.0 * np.pi
    for g in grids:
        val = geometry.chern(g, radius=args.radius)
        rows.append((g, g, val, abs(val - target)))
    print(f"{'n_theta':>8} {'n_phi':>8} {'value':>20} {'error':>12} {'ratio':>8}")
    for i, (nt, nph, val, err) in enumerate(rows):
        ratio = rows[i - 1][3] / err if i > 0 and err > 0 else float("nan")
        print(f"{nt:8d} {nph:8d} {val:20.12f} {err:12.3e} {ratio:8.1f}")
    if out:
        np.savetxt(out, [(nt, nph, v, e) for nt, nph, v, e in rows],
                   delimiter=",", header="n_theta,n_phi,value,error",
                   comments="", fmt=["%d", "%d", "%.15g", "%.6e"])
    if args.json:
        import json
        print(json.dumps([{"n_theta": nt, "n_phi": nph, "value": v, "error": e}
                          for nt, nph, v, e in rows], indent=2))
    final_err = rows[-1][3]
    print(f"value at {grids[-1]}x{grids[-1]}: {rows[-1][2]:.12f} "
          f"(target 2*pi, error {final_err:.3e}, tol {args.tol:.1e})")
    return 0 if final_err <= args.tol else 1


def cmd_evolve(args, out: str, report_path: str) -> int:
    cfg = dynamics.free_flight_config() if args.preset == "free" \
        else dynamics.monopole_flyby_config()
    # replace() re-runs the config's validation on the overridden values
    overrides = {k: v for k, v in (("mass", args.mass), ("dt", args.dt), ("steps", args.steps))
                 if v is not None}
    if args.n is not None or args.box is not None:
        overrides["lattice"] = LatticeSpec(
            n=cfg.lattice.n if args.n is None else args.n,
            box=cfg.lattice.box if args.box is None else args.box)
    cfg = dataclasses.replace(cfg, **overrides)

    traj, _ = dynamics.evolve(cfg)
    traj.save_csv(out)
    print(f"trajectory ({len(traj.times)} samples) written to {out}")
    if len(traj.cg_iters):
        print(f"mean CG iterations per step (one matvec each): {traj.cg_iters.mean():.1f}")

    drift = float(np.abs(traj.norm - traj.norm[0]).max())
    print(f"norm drift over the run: {drift:.3e}")
    if len(traj.times) < 3:  # too short for the Ehrenfest laws
        return 0 if drift <= 1e-9 else 1

    rep = dynamics.ehrenfest(traj)
    rep.write(report_path)
    if args.json:
        print(rep.to_json())
    for c in rep.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:20s} max_dev={c.max_dev:.3e} tol={c.tol:.1e}")
    print(f"Ehrenfest report written to {report_path}")
    return 0 if rep.passed and drift <= 1e-9 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            run, paths = cmd_verify, [args.out or f"qmono-{args.suite}-report.json"]
        elif args.command == "chern":
            run, paths = cmd_chern, ([args.out] if args.out else [])
        else:
            run, paths = cmd_evolve, [args.out, f"{os.path.splitext(args.out)[0]}-report.json"]
        # every path the command writes is checked before any work runs
        for path in paths:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"cannot write {path!r}: its directory does not exist")
            if not path or os.path.isdir(path):
                raise ValueError(f"cannot write {path!r}: not a file name")
        return run(args, *paths)
    except (ValueError, OSError, geometry.DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
