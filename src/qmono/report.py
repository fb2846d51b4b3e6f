"""Structured verification records with a stable JSON form.

A ``Report`` aggregates named ``Check`` rows (identity, deviation
statistics, tolerance, verdict).  Serialization is deterministic for a
fixed seed and configuration; the timestamp is an isolated top-level key so
consumers can drop it before comparing runs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np


@dataclass
class Check:
    name: str
    law: str
    max_dev: float
    mean_dev: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "law": self.law,
            "max_dev": self.max_dev,
            "mean_dev": self.mean_dev,
            "tol": self.tol,
            "pass": self.passed,
        }


def check_from_devs(name: str, law: str, devs, tol: float) -> Check:
    """Build a Check from an array of nonnegative deviations."""
    devs = np.atleast_1d(np.asarray(devs, dtype=float))
    max_dev = float(devs.max()) if devs.size else 0.0
    mean_dev = float(devs.mean()) if devs.size else 0.0
    return Check(name=name, law=law, max_dev=max_dev, mean_dev=mean_dev,
                 tol=tol, passed=bool(max_dev <= tol))


@dataclass
class Report:
    suite: str
    seed: int
    n_samples: int
    checks: list = field(default_factory=list)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> Check | None:
        """The failing check with the largest deviation/tolerance ratio."""
        failing = [c for c in self.checks if not c.passed]
        if not failing:
            return None
        return max(failing, key=lambda c: c.max_dev / c.tol if c.tol > 0 else np.inf)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
