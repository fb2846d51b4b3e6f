"""The forked map of the gis, operators and splitting suites' sampling
loops: it returns the in-process results bit for bit, raises a task's error
in the parent, leaves no process behind, and the loops draw exactly what
their draw-then-check form drew.  The splitting loop's workers replay the
suite generator over the fields of the runs before theirs; it never holds
more than one drawn field per worker."""

import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from qmono import cli, geometry, hilbert, operators as ops, quat, splitting, verify
from qmono.hilbert import Box, LatticeField, LatticeSpec
from qmono.report import Report, check_from_devs

SPEC = LatticeSpec(n=16, box=6.0)


def _workers(monkeypatch, count):
    monkeypatch.setattr(verify, "_cores", lambda: count)


def _fields(seed=0):
    psi = LatticeField(SPEC, np.random.default_rng(seed).standard_normal((16, 16, 16, 4)))
    return psi, hilbert.project(Box.of((-3.3,) * 3, (3.3,) * 3), psi)


def test_pooled_map_equals_the_in_process_map(monkeypatch):
    psi, _ = _fields()
    rng = np.random.default_rng(5)
    draws = [verify._sample_steps(rng, SPEC, 1, 3) for _ in range(7)]

    def task(m):
        return os.getpid(), ops.twisted_shift(SPEC, m)(psi).values[::3, 1::5].copy()

    _workers(monkeypatch, 1)
    serial = verify._map_draws(task, draws)
    _workers(monkeypatch, 2)
    pooled = verify._map_draws(task, draws)
    assert multiprocessing.active_children() == []
    # the pooled values come from forked workers, not from this process
    assert {pid for pid, _ in serial} == {os.getpid()}
    assert os.getpid() not in {pid for pid, _ in pooled}
    assert len(pooled) == len(serial) == 7
    for (_, got), (_, want) in zip(pooled, serial):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_task_error_in_a_worker_is_raised_in_the_parent(monkeypatch):
    def task(k):
        if k == 2:
            raise geometry.DomainError("segment through the origin")
        return k

    _workers(monkeypatch, 2)
    with pytest.raises(geometry.DomainError, match="through the origin"):
        verify._map_draws(task, [(k,) for k in range(6)])
    assert multiprocessing.active_children() == []
    assert verify._map_draws(lambda k: -k, [(k,) for k in range(6)]) == [0, -1, -2, -3, -4, -5]


def test_no_worker_outlives_a_suite_or_the_cli(tmp_path, monkeypatch):
    _workers(monkeypatch, 2)
    verify.gis_suite(n=16, samples=100, seed=1)
    assert multiprocessing.active_children() == []
    verify.operators_suite(n=16, samples=20, seed=1)
    assert multiprocessing.active_children() == []
    verify.splitting_suite(n=16, samples=7, seed=1)
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "gis", "--n", "16", "--samples", "60",
                     "--out", str(tmp_path / "gis.json")]) == 0
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "splitting", "--n", "16", "--samples", "7",
                     "--out", str(tmp_path / "splitting.json")]) == 0
    assert multiprocessing.active_children() == []


def _report(suite):
    rep = suite().to_dict()
    rep.pop("timestamp")
    return json.dumps(rep, sort_keys=True)


@pytest.mark.parametrize("suite", [
    lambda: verify.gis_suite(n=16, samples=100, seed=42),
    lambda: verify.operators_suite(n=16, samples=30, seed=42),
    # 7 samples: neither 2 nor 3 workers divide them into equal runs
    lambda: verify.splitting_suite(n=16, samples=7, seed=42),
], ids=["gis", "operators", "splitting"])
def test_reports_do_not_depend_on_the_worker_count(suite, monkeypatch):
    _workers(monkeypatch, 1)
    one = _report(suite)
    for count in (2, 3):
        _workers(monkeypatch, count)
        assert _report(suite) == one, count


def test_the_split_loop_holds_one_field_at_a_time(monkeypatch):
    # in one process the loop's peak does not grow with the sample count:
    # drawing its fields ahead would hold one grid per sample
    grid = 16 ** 3 * 4 * 8
    _workers(monkeypatch, 1)

    def peak(samples):
        rep = Report(suite="splitting", seed=0, n_samples=samples)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            verify._split_checks(rep, rng, SPEC, samples)
            return (tracemalloc.get_traced_memory()[1] - base) / grid
        finally:
            tracemalloc.stop()

    peak(1)  # the map's first call imports its pool modules
    few, many = peak(5), peak(40)
    assert abs(many - few) <= 1.0, (few, many)
    assert many < 12.0, many


# the six sampling loops as they were before the map: each draw followed by
# its check; each returns its deviations per check name

def _covariance_loop(rng, psi, interior):
    devs = []
    for _ in range(30):
        steps, = verify._sample_steps(rng, SPEC, 1, 3)
        box = verify._sample_box(rng, SPEC)
        devs.append(verify._covariance_dev(SPEC, psi, steps, box))
    return {"covariance": devs}


def _closure_loop(rng, psi, interior):
    out = {"composition-defect": [], "defect-pointwise": [], "multiplier-unit": [],
           "multiplier-commutes": []}
    for _ in range(3):
        ma, mb = verify._sample_steps(rng, SPEC, 2, 2)
        defect, sym, dev, pointwise = verify._closure_defect(SPEC, ma, mb)
        out["defect-pointwise"].append(pointwise)
        out["composition-defect"].append(dev)
        out["multiplier-unit"].append(float(np.abs(quat.qnorm(sym) - 1.0).max()))
        box = verify._sample_box(rng, SPEC)
        lhs = defect(hilbert.project(box, psi))
        rhs = hilbert.project(box, defect(psi))
        out["multiplier-commutes"].append(verify._bitexact_dev(lhs.values, rhs.values))
    return out


def _shift_loop(rng, psi, interior):
    imp, comp = [], []
    for _ in range(30):
        steps, = verify._sample_steps(rng, SPEC, 1, 3)
        imp.append(verify._covariance_dev(SPEC, psi, steps, verify._sample_box(rng, SPEC)))
        s2, = verify._sample_steps(rng, SPEC, 1, 3)
        composed = ops.Shift(SPEC, steps)(ops.Shift(SPEC, s2)(interior)).values
        comp.append(verify._bitexact_dev(composed, ops.Shift(SPEC, steps + s2)(interior).values))
    return {"imprimitivity": imp, "shift-composition": comp}


def _twisted_loop(rng, psi, interior):
    un, group = [], []
    norm = hilbert.norm(interior)
    for _ in range(20):
        m, = verify._sample_steps(rng, SPEC, 1, 3)
        un.append(abs(hilbert.norm(ops.twisted_shift(SPEC, m)(interior)) - norm) / norm)
        unit = np.eye(3, dtype=int)[int(rng.integers(0, 3))]
        s, t = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        left = ops.twisted_shift(SPEC, s * unit)(ops.twisted_shift(SPEC, t * unit)(interior))
        right = ops.twisted_shift(SPEC, (s + t) * unit)(interior)
        group.append(np.abs(left.values - right.values).max())
    return {"twisted-unitarity": un, "one-parameter-line": group}


def _defect_loop(rng, psi, interior):
    dev, struct, size = [], [], []
    for _ in range(10):
        ma, mb = verify._sample_steps(rng, SPEC, 2, 2)
        _, sym, d, pointwise = verify._closure_defect(SPEC, ma, mb)
        struct.append(pointwise)
        dev.append(d)
        if np.cross(ma, mb).any():
            size.append(quat.qnorm(sym - quat.E0).max())
    return {"defect-symbol": dev, "defect-pointwise": struct,
            "wpr-nontrivial": [0.0 if min(size) > 1e-3 else 1.0]}


def _split_loop(rng, psi, interior):
    out = {"reconstruction": [], "norm-additivity": [], "slice-membership": [],
           "orthogonality-real": [], "orthogonality-slice": [], "inner-in-slice": []}
    for _ in range(7):
        drawn = LatticeField(SPEC, rng.standard_normal((16, 16, 16, 4)))
        field = LatticeField(SPEC, drawn.values / hilbert.norm(drawn))
        pair = splitting.split(field)
        out["reconstruction"].append(
            np.abs(splitting.reconstruct(pair).values - field.values).max())
        out["norm-additivity"].append(abs(hilbert.norm(field) ** 2 - hilbert.norm(pair.psi1) ** 2
                                          - hilbert.norm(pair.psi2) ** 2))
        out["slice-membership"].append(max(splitting.slice_residual(pair.psi1),
                                           splitting.slice_residual(pair.psi2)))
        cross = hilbert.inner(pair.psi1, hilbert.rscale(pair.psi2, quat.E1))
        out["orthogonality-real"].append(abs(cross[0]))
        out["orthogonality-slice"].append(abs(np.sum(cross * quat.E3)))
        q12 = hilbert.inner(pair.psi1, pair.psi2)
        out["inner-in-slice"].append(
            quat.qnorm(q12 - q12[0] * quat.E0 - np.sum(q12 * quat.E3) * quat.E3))
    return out


_GROUPS = {
    "covariance": (lambda rep, rng, psi, interior:
                   verify._covariance_checks(rep, rng, SPEC, psi, 30), _covariance_loop),
    "closure": (lambda rep, rng, psi, interior:
                verify._closure_checks(rep, rng, SPEC, psi, 3), _closure_loop),
    "shift": (lambda rep, rng, psi, interior:
              verify._shift_checks(rep, rng, SPEC, psi, interior, 30), _shift_loop),
    "twisted": (lambda rep, rng, psi, interior:
                verify._twisted_checks(rep, rng, SPEC, interior, 1e-12), _twisted_loop),
    "defect": (lambda rep, rng, psi, interior:
               verify._defect_checks(rep, rng, SPEC, 1e-12), _defect_loop),
    "split": (lambda rep, rng, psi, interior:
              verify._split_checks(rep, rng, SPEC, 7), _split_loop),
}


@pytest.mark.parametrize("group", sorted(_GROUPS))
@pytest.mark.parametrize("seed", [1, 42])
def test_mapped_loops_draw_like_the_interleaved_loops(group, seed, monkeypatch):
    _workers(monkeypatch, 2)
    mapped, interleaved = _GROUPS[group]
    psi, interior = _fields(seed)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = Report(suite=group, seed=seed, n_samples=0)
    mapped(rep, rng, psi, interior)
    want = interleaved(ref, psi, interior)
    assert rng.bit_generator.state == ref.bit_generator.state
    checks = {c.name: c for c in rep.checks}
    for name, devs in want.items():
        c = checks[name]
        assert check_from_devs(c.name, c.law, devs, c.tol) == c, name
