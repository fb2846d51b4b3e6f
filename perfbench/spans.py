"""In-memory span recording around qmono's public functions.

A ``Tracer`` wraps the public functions of each qmono module (and a short
list of public methods) from the outside, records one span per call --
name, start, end and the index of the enclosing span -- and derives call
counts, inclusive time and self time from the span tree.  Nothing inside
``src/`` is edited: the wrappers are installed as module and class
attributes for the duration of a ``with tracer.installed():`` block and
the originals are put back afterwards.

Names bound by ``from .x import y`` live in the importing module's globals
too; ``install`` re-points every such alias at the same wrapper, so those
calls are recorded as well, and lists the aliases it patched.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

LAYERS = ("quat", "geometry", "hilbert", "operators", "splitting",
          "dynamics", "verify", "report")

# private helpers worth a span of their own: link assembly, which dynamics
# binds by ``from .operators import _hop_links``, and the shift
# admissibility test that the gis sampler repeats on every draw
PRIVATE = (("operators", "_hop_links"), ("operators", "_steps_admissible"))

# public methods worth a span of their own, named module.Class.method
METHODS = (
    ("operators", "Operator", "__call__"),
    ("dynamics", "CayleyEvolver", "__init__"),
    ("dynamics", "CayleyEvolver", "step"),
    ("dynamics", "Trajectory", "save_csv"),
    ("report", "Report", "write"),
)


class Tracer:
    """Span recorder.  ``spans`` holds ``[name, start, end, parent]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self.aliases: list[str] = []
        self.cg_iters = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def count_cg(self, cg):
        """``scipy.sparse.linalg.cg`` with an iteration-counting callback."""

        @functools.wraps(cg)
        def counted(*args, **kwargs):
            user_cb = kwargs.get("callback")

            def callback(xk):
                self.cg_iters += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            return cg(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every module in ``LAYERS``."""
        modules = {name: getattr(package, name) for name in LAYERS}
        everywhere = [m for m in vars(package).values() if inspect.ismodule(m)]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and (layer, attr) not in PRIVATE:
                    continue
                if (isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, obj)
                self.wrapped.append(name)
                for other in everywhere:
                    for alias, bound in list(vars(other).items()):
                        if bound is obj:
                            self._set(other, alias, wrapper)
                            if other is not mod:
                                self.aliases.append(f"{other.__name__}.{alias} -> {name}")
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            name = f"{layer}.{cls_name}.{meth}"
            self._set(cls, meth, self.wrap(name, vars(cls)[meth]))
            self.wrapped.append(name)
        dyn = modules["dynamics"]
        if "cg" in vars(dyn):
            self._set(dyn, "cg", self.count_cg(vars(dyn)["cg"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


def span_stats(spans) -> dict:
    """Per-name ``{"calls", "incl_s", "self_s"}`` from a span list.

    Self time is a span's duration minus the durations of its direct
    children (calls are nested on one thread, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        s = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += end - start - inner
    return stats


def covered_s(spans) -> float:
    """Wall time inside top-level spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def durations(spans, name: str) -> list:
    return [end - start for n, start, end, _ in spans if n == name]


def tail_index(count: int) -> int:
    """Index of the highest sorted sample with at least ten samples above it
    (the last sample when there are fewer than eleven)."""
    return count - 11 if count >= 11 else count - 1


def coverage_report(tracer: Tracer, stats: dict, wall_s: float) -> str:
    """Every wrapped function with its call count; zero-call ones flagged."""
    lines = [f"{'calls':>9}  {'self_s':>9}  function"]
    zero = []
    for name in sorted(tracer.wrapped):
        calls = stats.get(name, {}).get("calls", 0)
        self_s = stats.get(name, {}).get("self_s", 0.0)
        flag = "" if calls else "  ZERO CALLS: not reached by this workload"
        if not calls:
            zero.append(name)
        lines.append(f"{calls:9d}  {self_s:9.4f}  {name}{flag}")
    lines.append(f"wrapped {len(tracer.wrapped)}, called {len(tracer.wrapped) - len(zero)}, "
                 f"zero-call {len(zero)}")
    lines.append("from-import aliases re-pointed at their wrapper: "
                 + (", ".join(tracer.aliases) or "none"))
    lines.append("other private helpers (leading underscore) are not wrapped; their time "
                 "is self time of their caller")
    uncovered = wall_s - covered_s(tracer.spans)
    lines.append(f"wall {wall_s:.4f} s, outside every span {uncovered:.4f} s "
                 f"({uncovered / wall_s:.2%})")
    return "\n".join(lines)
