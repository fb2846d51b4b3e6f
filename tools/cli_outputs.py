"""Record every output of a fixed list of qmono commands, for byte-identity checks.

    python tools/cli_outputs.py OUTDIR

Each command runs in a fresh process, in its own empty directory
``OUTDIR/<name>``, with one BLAS thread and this checkout's ``src`` on
``PYTHONPATH``.  Beside the files the command writes go its ``stdout``,
``stderr`` and ``exit`` code; the ``timestamp`` key is dropped from every
JSON report and OUTDIR is replaced by ``<OUTDIR>`` everywhere, so that two
checkouts recorded into two directories compare with ``diff -r A B``.  The
``cg_iters`` that ``dynamics.evolve`` returns for each preset are recorded
too, one count per line.

It exits 2, with nothing recorded, when ``src/qmono`` is missing beside
``tools/``, and 1 after recording when any command failed to import
``qmono``, so that two recordings in which nothing ran cannot pass as equal.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

COMMANDS = {
    "verify-algebra": ["verify", "algebra"],
    "verify-geometry": ["verify", "geometry"],
    **{f"verify-{suite}-n32-seed{seed}": ["verify", suite, "--n", "32", "--seed", str(seed)]
       for suite in ("gis", "operators", "splitting") for seed in (1, 42, 1008)},
    "verify-gis-n12": ["verify", "gis", "--n", "12"],
    # the smallest lattice the suite accepts: its shifts carry blocks into the walls most often
    "verify-operators-n14-seed1": ["verify", "operators", "--n", "14", "--seed", "1"],
    # n = 42 leaves a partial last slab in the slice gauge (4-row slabs)
    "verify-operators-n42-seed1": ["verify", "operators", "--n", "42", "--seed", "1"],
    # a step of 0.4, not dyadic: the twisted shifts' symbols round in their last bits
    "verify-operators-n36-box7.2": ["verify", "operators", "--n", "36", "--box", "7.2",
                                    "--seed", "5"],
    "verify-gis-n36-box7.2": ["verify", "gis", "--n", "36", "--box", "7.2", "--seed", "5",
                              "--samples", "300"],
    # one sample: the only run draws the member; a known miss (exit 1) on four
    # rows, whose absolute deviations scale as box^-3/2
    "verify-splitting-n4-box1e-6": ["verify", "splitting", "--n", "4", "--box", "1e-6",
                                    "--samples", "1"],
    "evolve-free": ["evolve", "--preset", "free"],
    "evolve-flyby": ["evolve", "--preset", "flyby"],
    "evolve-flyby-n24": ["evolve", "--preset", "flyby", "--n", "24"],
    "evolve-free-n42": ["evolve", "--preset", "free", "--n", "42", "--steps", "3"],
    # force rows on a step of 2/7, not dyadic, with the gradient stencils'
    # 4-row slabs and a last one of 2
    "evolve-flyby-n42": ["evolve", "--preset", "flyby", "--n", "42", "--steps", "3"],
    # a step whose square underflows: refused (exit 2), as ehrenfest divides by dt^2
    "evolve-flyby-n16-dt1e-170": ["evolve", "--preset", "flyby", "--n", "16", "--dt", "1e-170",
                                  "--steps", "4"],
    # a packet that underflows to norm 0 on the lattice: refused (exit 2), nothing written
    "evolve-free-n12-box1000": ["evolve", "--preset", "free", "--n", "12", "--box", "1000",
                                "--steps", "2"],
    # no step: one row, too few samples for a report
    "evolve-flyby-n16-steps0": ["evolve", "--preset", "flyby", "--n", "16", "--steps", "0"],
    "chern": ["chern"],
    # eight-row blocks with a one-row last block, and a radius other than 1
    "chern-n1024-radius7": ["chern", "--n", "1024", "--radius", "7", "--json"],
}

CG_ITERS = """
from qmono import dynamics
traj, _ = dynamics.evolve(dynamics.{}_config())
print(*traj.cg_iters, sep="\\n")
"""


def _run(outdir: str, name: str, argv: list) -> bool:
    """Run and record one command; False if its ``stderr`` shows a failed import."""
    cwd = os.path.join(outdir, name)
    os.makedirs(cwd)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    written = sorted(os.listdir(cwd))
    outputs = {"stdout": proc.stdout, "stderr": proc.stderr, "exit": f"{proc.returncode}\n"}
    for fname in written:
        with open(os.path.join(cwd, fname)) as fh:
            text = fh.read()
        if fname.endswith(".json"):
            report = json.loads(text)
            report.pop("timestamp", None)
            text = json.dumps(report, indent=2) + "\n"
        outputs[fname] = text
    for fname, text in outputs.items():
        with open(os.path.join(cwd, fname), "w") as fh:
            fh.write(text.replace(outdir, "<OUTDIR>"))
    print(f"{name}: exit {proc.returncode}, wrote {', '.join(written) or 'nothing'}")
    return "ModuleNotFoundError" not in proc.stderr and "ImportError" not in proc.stderr


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if not os.path.isfile(os.path.join(SRC, "qmono", "__init__.py")):
        print(f"no qmono package in {SRC}: run the tool from its own checkout", file=sys.stderr)
        sys.exit(2)
    outdir = os.path.abspath(sys.argv[1])
    os.makedirs(outdir)
    runs = {name: ["-m", "qmono.cli", *args] for name, args in COMMANDS.items()}
    runs.update({f"cg-iters-{preset}": ["-c", CG_ITERS.format(preset)]
                 for preset in ("free_flight", "monopole_flyby")})
    failed = [name for name, argv in runs.items() if not _run(outdir, name, argv)]
    if failed:
        sys.exit(f"qmono failed to import in {len(failed)} of {len(runs)} runs: {', '.join(failed)}")


if __name__ == "__main__":
    main()
