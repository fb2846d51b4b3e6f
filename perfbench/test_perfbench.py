"""Fast checks of the benchmark itself, on tiny workload sizes."""

import json
import os
import subprocess
import sys
import time

import pytest

import qmono
import run
import spans
import worker
import workloads
from qmono import dynamics, operators, verify

HERE = os.path.dirname(os.path.abspath(__file__))


def _declared(kind: str) -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workload_unit_runs_gated(name, tmp_path):
    outcome = workloads.Outcome()
    info = workloads.run_unit(workloads.TINY[name], 3, str(tmp_path), outcome,
                              time.perf_counter)
    assert info["io_bytes"] > 0
    assert outcome.attempted >= 2
    if name == "flyby-n48":
        # n=16 under-resolves the packet (sigma < h), so only the force law
        # may miss its 5% tolerance; norm drift and velocity law must hold
        assert outcome.failed <= 1
        assert all("force-identity" in f for f in outcome.failures)
    else:
        assert outcome.failed == 0, outcome.failures
    assert 0.0 < outcome.tol_used


def test_end_to_end_metric_names_match_benchmark_json():
    metrics = run.end_to_end([{"setup_s": 1.0, "import_s": 0.5}],
                             [{"wall_s": 2.0, "peak_rss_mb": 3.0}])
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")


def test_traced_run_gives_every_per_layer_metric(tmp_path):
    result = worker.trace(workloads.TINY["free-n36"], 5, 2, str(tmp_path))
    metrics = result["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == _declared("per_layer")
    assert metrics["dynamics.cg_iters_per_step"][0] > 0
    assert metrics["trace.overhead_ratio"][0] > 0
    assert metrics["io.bytes"][0] > 0
    assert "ZERO CALLS" in result["coverage"]
    assert os.path.isfile(tmp_path / "trace.json")


def test_forced_failure_is_counted_and_the_rest_still_run(tmp_path):
    def raises():
        raise RuntimeError("Cayley inner solve did not converge")

    outcome = workloads.Outcome()
    walls = workloads.run_suites(
        [("geometry", lambda: verify.geometry_suite(samples=50, seed=1, tol=0.0)),
         ("solver", raises),
         ("gis", lambda: verify.gis_suite(n=16, samples=2, seed=1))],
        str(tmp_path), outcome, time.perf_counter)["suite_s"]
    assert set(walls) == {"geometry", "solver", "gis"}
    assert outcome.failed >= 2
    assert any(f.startswith("solver:") for f in outcome.failures)
    assert any(f.startswith("geometry/") for f in outcome.failures)
    assert not any(f.startswith("gis") for f in outcome.failures)


def test_self_time_on_synthetic_span_tree():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["d", 11.0, 12.0, -1],
    ]
    stats = spans.span_stats(tree)
    assert stats["a"] == {"calls": 1, "incl_s": 10.0, "self_s": 5.0}
    assert stats["b"] == {"calls": 2, "incl_s": 5.0, "self_s": 4.0}
    assert stats["c"]["self_s"] == 1.0
    assert spans.covered_s(tree) == 11.0
    assert spans.tail_index(36) == 25 and spans.tail_index(5) == 4


def test_tracer_wraps_aliases_and_restores_originals():
    hop_links = operators._hop_links
    tracer = spans.Tracer()
    with tracer.installed(qmono):
        assert dynamics._hop_links is operators._hop_links is not hop_links
        spec = qmono.LatticeSpec(n=4, box=2.0)
        dynamics.build_gradient_matrices(spec)
    assert dynamics._hop_links is hop_links and operators._hop_links is hop_links
    stats = spans.span_stats(tracer.spans)
    assert stats["operators._hop_links"]["calls"] == 3
    assert stats["dynamics.build_gradient_matrices"]["calls"] == 1


def test_run_without_a_program_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-n32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
