"""The forked map that runs each of the gis, operators and splitting suites
as one task list: it returns the in-process results bit for bit, raises a
task's error in the parent, fails the run when a worker dies, leaves no
process behind, each suite maps once, and the suites draw exactly what
their draw-then-check loops drew.  A covariance task checks all the draws
of one step vector as each draw's own check would.  The splitting loop's workers replay the suite generator over
the fields of the runs before theirs; it never holds more than one drawn
field per worker."""

import functools
import json
import multiprocessing
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from qmono import cli, geometry, hilbert, operators as ops, quat, splitting, verify
from qmono.hilbert import Box, LatticeField, LatticeSpec
from qmono.report import check_from_devs

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

    tasks = [functools.partial(task, *d) for d in draws]
    _workers(monkeypatch, 1)
    serial = verify._run_tasks(tasks)
    _workers(monkeypatch, 2)
    pooled = verify._run_tasks(tasks)
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
        verify._run_tasks([functools.partial(task, k) for k in range(6)])
    assert multiprocessing.active_children() == []
    assert verify._run_tasks([functools.partial(lambda k: -k, k) for k in range(6)]) \
        == [0, -1, -2, -3, -4, -5]


def test_a_dead_worker_fails_the_run_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    # a worker that dies (say, killed out of memory) breaks the pool: the
    # run fails with exit 1 instead of hanging, and writes nothing
    parent = os.getpid()

    def dies(spec, seed):
        if os.getpid() == parent:
            raise AssertionError("the task ran in the calling process")
        os._exit(3)

    _workers(monkeypatch, 2)
    monkeypatch.setattr(verify, "_reduce_checks", dies)
    assert cli.main(["verify", "splitting", "--n", "16", "--samples", "7",
                     "--out", str(tmp_path / "splitting.json")]) == 1
    assert "run failed:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


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
    assert cli.main(["verify", "operators", "--n", "16", "--samples", "20",
                     "--out", str(tmp_path / "operators.json")]) == 0
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "splitting", "--n", "16", "--samples", "7",
                     "--out", str(tmp_path / "splitting.json")]) == 0
    assert multiprocessing.active_children() == []

    # a task that raises: the suite raises its error and leaves no worker
    def broken(spec, seed):
        raise geometry.DomainError("segment through the origin")

    monkeypatch.setattr(verify, "_reduce_checks", broken)
    with pytest.raises(geometry.DomainError, match="through the origin"):
        verify.splitting_suite(n=16, samples=7, seed=1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("suite", [
    lambda: verify.gis_suite(n=16, samples=100, seed=1),
    lambda: verify.operators_suite(n=16, samples=20, seed=1),
    lambda: verify.splitting_suite(n=16, samples=7, seed=1),
], ids=["gis", "operators", "splitting"])
def test_a_suite_evaluates_its_tasks_in_one_map(suite, monkeypatch):
    _workers(monkeypatch, 2)
    maps, real = [], verify._run_tasks

    def counted(tasks):
        maps.append(len(tasks))
        return real(tasks)

    monkeypatch.setattr(verify, "_run_tasks", counted)
    suite()
    assert len(maps) == 1, maps


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
    # in one process a run's peak does not grow with its sample count, nor
    # with the fields it replays: drawing its fields ahead would hold one
    # grid per sample
    grid = 16 ** 3 * 4 * 8

    def peak(start, stop):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            verify._split_run(rng, SPEC, start, stop)
            return (tracemalloc.get_traced_memory()[1] - base) / grid
        finally:
            tracemalloc.stop()

    peak(0, 1)
    few, many = peak(0, 5), peak(0, 40)
    assert abs(many - few) <= 1.0, (few, many)
    assert many < 12.0, many
    replayed = peak(39, 40)
    assert replayed <= few + 1.0, (few, replayed)


def _covariance_dev(spec, psi, steps, box):
    """The covariance deviation of one draw, checked on its own."""
    u = ops.twisted_shift(spec, steps)
    lhs = u(hilbert.project(box, psi))
    rhs = hilbert.project(box.translate(steps * spec.step), u(psi))
    return verify._bitexact_dev(lhs.values, rhs.values)


def test_a_step_group_checks_each_draw_like_its_own_check(monkeypatch):
    psi, _ = _fields(3)
    rng = np.random.default_rng(3)
    draws = [verify._covariance_draw(rng, SPEC) for _ in range(12)]
    # more boxes for the steps of draws 4 and 0
    draws += [(draws[4][0], verify._sample_box(rng, SPEC)),
              (draws[0][0], verify._sample_box(rng, SPEC)),
              (draws[4][0], verify._sample_box(rng, SPEC))]
    tasks, groups = verify._step_group_tasks(
        draws, functools.partial(verify._covariance_devs, SPEC, psi))
    assert len(tasks) == len(groups) < len(draws)  # a step vector repeats
    assert sorted(i for g in groups for i in g) == list(range(len(draws)))
    assert [len(g) for g in groups] == sorted(map(len, groups), reverse=True)
    for g in groups:
        assert all(np.array_equal(draws[i][0], draws[g[0]][0]) for i in g)
    # the identity holds, so every deviation reads 0.0; a checksum of both
    # sides' bytes tells each draw's comparison apart
    checksum = lambda lhs, rhs: float(zlib.crc32(lhs.tobytes() + rhs.tobytes()))
    for dev in (verify._bitexact_dev, checksum):
        monkeypatch.setattr(verify, "_bitexact_dev", dev)
        got = verify._in_draw_order(groups, [task() for task in tasks])
        assert got == [_covariance_dev(SPEC, psi, m, box) for m, box in draws]
    assert len(set(got)) == len(draws)


# the sampling loops as they were before the map: each draw followed by its
# check; each returns its deviations per check name

def _covariance_loop(rng, psi):
    devs = []
    for _ in range(150):
        steps, = verify._sample_steps(rng, SPEC, 1, 3)
        box = verify._sample_box(rng, SPEC)
        devs.append(_covariance_dev(SPEC, psi, steps, box))
    return {"covariance": devs}


def _closure_loop(rng, psi):
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
        imp.append(_covariance_dev(SPEC, psi, steps, verify._sample_box(rng, SPEC)))
        s2, = verify._sample_steps(rng, SPEC, 1, 3)
        composed = ops.Shift(SPEC, steps)(ops.Shift(SPEC, s2)(interior)).values
        comp.append(verify._bitexact_dev(composed, ops.Shift(SPEC, steps + s2)(interior).values))
    return {"imprimitivity": imp, "shift-composition": comp}


def _twisted_loop(rng, interior):
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


def _defect_loop(rng):
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


def _split_loop(rng):
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


# each suite's draws in the draw-then-check order, its sampling loops
# checked on the way: returns the loops' deviations per group

def _gis_loops(rng):
    psi = LatticeField(SPEC, rng.standard_normal((16, 16, 16, 4)))
    loops = {"covariance": _covariance_loop(rng, psi), "closure": _closure_loop(rng, psi)}
    verify._sample_tetraflux(rng, 2000)
    return loops


def _operators_loops(rng):
    psi = LatticeField(SPEC, rng.standard_normal((16, 16, 16, 4)))
    rng.standard_normal((16, 16, 16, 4))  # phi
    interior = hilbert.project(Box.of((-3.3,) * 3, (3.3,) * 3), psi)
    loops = {"shift": _shift_loop(rng, psi, interior), "twisted": _twisted_loop(rng, interior),
             "defect": _defect_loop(rng)}
    # the analytic checks' 20 Gaussian fields, 12 probes and 5 directions
    verify._random_gaussian_fields(rng, 20)
    verify._probe_points(rng)
    for _ in range(5):
        rng.standard_normal(3)
    return loops


def _splitting_loops(rng):
    loops = {"split": _split_loop(rng)}
    splitting.random_slice_member(SPEC, rng)  # the member checks' draw
    return loops


_SUITES = {
    "gis": (lambda seed: verify.gis_suite(n=16, samples=150, seed=seed), _gis_loops),
    "operators": (lambda seed: verify.operators_suite(n=16, samples=30, seed=seed),
                  _operators_loops),
    "splitting": (lambda seed: verify.splitting_suite(n=16, samples=7, seed=seed),
                  _splitting_loops),
}
_GROUPS = {"covariance": "gis", "closure": "gis", "shift": "operators", "twisted": "operators",
           "defect": "operators", "split": "splitting"}


@pytest.mark.parametrize("group", sorted(_GROUPS))
@pytest.mark.parametrize("seed", [1, 42])
def test_mapped_loops_draw_like_the_interleaved_loops(group, seed, monkeypatch):
    # the whole suite on two workers: its generator ends where the
    # draw-then-check loops leave theirs, and the group's checks read the
    # loop's deviations
    _workers(monkeypatch, 2)
    suite, loops = _SUITES[_GROUPS[group]]
    ref = np.random.default_rng(seed)
    want = loops(ref)[group]
    made, real = [], np.random.default_rng

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    rep = suite(seed)
    assert made[0].bit_generator.state == ref.bit_generator.state
    checks = {c.name: c for c in rep.checks}
    for name, devs in want.items():
        c = checks[name]
        assert check_from_devs(c.name, c.law, devs, c.tol) == c, name
