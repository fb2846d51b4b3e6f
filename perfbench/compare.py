"""Parent-versus-change comparison of the end-to-end metrics.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload NAME [--pairs 10]

Runs this benchmark (the copy beside this file, so both sides use identical
benchmark code) from the root of each checkout in turn, ``--pairs`` times
with a fresh seed per pair, alternating which side runs first.  For each
end-to-end metric it prints both medians and quartiles, the share of pairs
the change won, and a verdict: ``gain`` when the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile spread, ``regression`` when the change's median is worse than the
parent's by more than the metric's bound, ``unresolved`` when the parent's
own spread is wider than the bound, else ``same``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.HERE, "..", "BENCHMARK.json")


def one_run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {checkout} seed {seed}: {result['failed']} failed checks", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(metric: dict, parent: list, change: list) -> tuple:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change)) / len(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if sign * (med_c - med_p) > metric["bound"] * med_p:
        return wins, "regression"
    if wins >= 0.9 and abs(med_c - med_p) > q3 - q1:
        return wins, "gain"
    if q3 - q1 > metric["bound"] * med_p:
        return wins, "unresolved"
    return wins, "same"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=sorted(run.UNIT_S))
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = getattr(args, side)
            runs[side].append(one_run(checkout, args.workload, 1000 + i, bench["run_seconds"]))
    print(f"{args.workload}, {args.pairs} pairs")
    print(f"{'metric':>14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>5}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        cols = []
        for side in ("parent", "change"):
            vals = [r[name] for r in runs[side]]
            q = statistics.quantiles(vals, n=4)
            cols.append(f"{statistics.median(vals):.4g} [{q[0]:.4g}, {q[2]:.4g}]")
        wins, word = verdict(metric, [r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]])
        print(f"{name:>14} {cols[0]:>34} {cols[1]:>34} {wins:5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
