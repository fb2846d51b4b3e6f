"""The forked map that runs each of the gis, operators and splitting suites
as one task list: it returns the in-process results bit for bit, raises a
task's error in the parent, fails the run when a worker dies, leaves no
process behind, each suite maps once, and the suites draw exactly what
their draw-then-check loops drew.  A covariance task checks all the draws
of one step vector as each draw's own check would.  The splitting loop's workers replay the suite generator over
the fields of the runs before theirs; it never holds more than one drawn
field per worker."""

import concurrent.futures
import functools
import json
import multiprocessing
import os
import sys
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest

from qmono import cli, geometry, hilbert, operators as ops, quat, runner, splitting, verify
from qmono.hilbert import Box, LatticeField, LatticeSpec
from qmono.report import check_from_devs

SPEC = LatticeSpec(n=16, box=6.0)


def _workers(monkeypatch, count):
    monkeypatch.setattr(runner, "cores", lambda: count)


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
    serial = runner.run_tasks(tasks)
    _workers(monkeypatch, 2)
    pooled = runner.run_tasks(tasks)
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
        runner.run_tasks([functools.partial(task, k) for k in range(6)])
    assert multiprocessing.active_children() == []
    assert runner.run_tasks([functools.partial(lambda k: -k, k) for k in range(6)]) \
        == [0, -1, -2, -3, -4, -5]


def test_an_executor_that_cannot_be_made_leaves_no_task_list(monkeypatch):
    # as when the process runs out of file descriptors: the error propagates,
    # and the task list and the fields its tasks hold are not kept
    def no_executor(*args, **kwargs):
        raise OSError("too many open files")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_executor)
    with pytest.raises(OSError, match="too many open files"):
        runner.run_tasks([functools.partial(lambda k: k, k) for k in range(4)])
    assert runner._TASKS is None
    assert multiprocessing.active_children() == []


def test_without_fork_the_tasks_run_in_this_process(monkeypatch):
    # as on Windows: without fork no worker could inherit the task list
    _workers(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    pids = runner.run_tasks([functools.partial(lambda k: (os.getpid(), k), k) for k in range(4)])
    assert pids == [(os.getpid(), k) for k in range(4)]
    assert multiprocessing.active_children() == []


def test_without_an_affinity_call_there_is_one_core(monkeypatch):
    # as on macOS and Windows, where os has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert runner.cores() == 1


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
    maps, real = [], runner.run_tasks

    def counted(tasks):
        maps.append(len(tasks))
        return real(tasks)

    monkeypatch.setattr(runner, "run_tasks", counted)
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
    # grid per sample.  No run here is the last of its suite, so none draws
    # a slice member inside the traced peak
    grid = 16 ** 3 * 4 * 8

    def peak(start, stop):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            verify._split_run(0, SPEC, start, stop, stop + 1)
            return (tracemalloc.get_traced_memory()[1] - base) / grid
        finally:
            tracemalloc.stop()

    peak(0, 1)
    few, many = peak(0, 5), peak(0, 40)
    assert abs(many - few) <= 1.0, (few, many)
    assert many < 12.0, many
    replayed = peak(39, 40)
    assert replayed <= few + 1.0, (few, replayed)


def _covariance_fields(spec, psi, steps, box):
    """Both sides of one draw's covariance law, built on their own."""
    u = ops.twisted_shift(spec, steps)
    return u(hilbert.project(box, psi)), hilbert.project(box.translate(steps * spec.step), u(psi))


def _whole_grid_dev(lhs, rhs):
    """The bit-exact deviation of two fields, compared on their whole grids
    whatever their supports: the reference for ``verify._bitexact_dev``."""
    if np.array_equal(lhs.values, rhs.values):
        return 0.0
    return float(np.abs(lhs.values - rhs.values).max())


def test_a_bitexact_check_reads_the_whole_grid_deviation():
    psi, _ = _fields(4)
    box = Box.of((-2.1, -0.3, 1.5), (1.5, 2.7, 4.5))
    lhs = hilbert.project(box, psi)
    block = lhs.support
    assert block is not None
    # one support: the block alone is compared, and reads the whole grid's deviation
    vals = lhs.values.copy()
    vals[block][2, 1, 3, 2] += 0.75
    vals[block][0, 3, 1, 0] -= 0.25
    rhs = LatticeField.of_block(SPEC, vals[block], block)
    assert verify._bitexact_dev(lhs, rhs) == _whole_grid_dev(lhs, rhs) == 0.75
    same = LatticeField.of_block(SPEC, lhs.values.copy()[block], block)
    assert verify._bitexact_dev(lhs, same) == 0.0
    # other supports, or none: the whole grids are compared, off either block too
    other = hilbert.project(box.translate((SPEC.step, 0.0, 0.0)), psi)
    assert other.support != block
    for a, b in ((lhs, other), (other, lhs), (lhs, psi), (psi, lhs)):
        assert verify._bitexact_dev(a, b) == _whole_grid_dev(a, b) > 0.0


def test_the_bitexact_paths_form_no_whole_grid():
    # a covariance draw and a shift-composition draw, built as
    # verify._covariance_devs and verify._imprimitivity_devs build them:
    # every projected, shifted and twisted field holds only its block, also
    # once two with one support are compared
    psi, interior = _fields(5)
    rng = np.random.default_rng(8)
    steps, box = verify._covariance_draw(rng, SPEC)
    s2, = verify._sample_steps(rng, SPEC, 1, 3)
    u = ops.twisted_shift(SPEC, steps)
    u_psi, projected = u(psi), hilbert.project(box, psi)
    pairs = [(u(projected), hilbert.project(box.translate(steps * SPEC.step), u_psi)),
             (ops.Shift(SPEC, steps)(ops.Shift(SPEC, s2)(interior)),
              ops.Shift(SPEC, steps + s2)(interior))]
    fields = [u_psi, projected, interior, *(f for pair in pairs for f in pair)]
    assert not any("values" in vars(f) for f in fields)
    for lhs, rhs in pairs:
        assert lhs.support == rhs.support and lhs.block.size > 0
        assert verify._bitexact_dev(lhs, rhs) == 0.0
    assert not any("values" in vars(f) for f in fields)


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
    checksum = lambda lhs, rhs: float(zlib.crc32(lhs.values.tobytes() + rhs.values.tobytes()))
    for dev in (verify._bitexact_dev, checksum):
        monkeypatch.setattr(verify, "_bitexact_dev", dev)
        got = verify._in_draw_order(groups, [task() for task in tasks])
        assert got == [verify._bitexact_dev(*_covariance_fields(SPEC, psi, m, box))
                       for m, box in draws]
    assert len(set(got)) == len(draws)


# the sampling loops as they were before the map: each draw followed by its
# check; each returns its deviations per check name

def _covariance_loop(rng, psi):
    devs = []
    for _ in range(150):
        steps, = verify._sample_steps(rng, SPEC, 1, 3)
        box = verify._sample_box(rng, SPEC)
        devs.append(_whole_grid_dev(*_covariance_fields(SPEC, psi, steps, box)))
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
        out["multiplier-commutes"].append(_whole_grid_dev(lhs, rhs))
    return out


def _shift_loop(rng, psi, interior):
    imp, comp = [], []
    for _ in range(30):
        steps, = verify._sample_steps(rng, SPEC, 1, 3)
        box = verify._sample_box(rng, SPEC)
        imp.append(_whole_grid_dev(*_covariance_fields(SPEC, psi, steps, box)))
        s2, = verify._sample_steps(rng, SPEC, 1, 3)
        composed = ops.Shift(SPEC, steps)(ops.Shift(SPEC, s2)(interior))
        comp.append(_whole_grid_dev(composed, ops.Shift(SPEC, steps + s2)(interior)))
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


def _twisted_steps(rng):
    """The first steps ``m`` of the 20 twisted draws of ``operators_suite(n=16,
    samples=30)``, drawn from the suite's fresh generator ``rng``."""
    for _ in range(2):
        rng.standard_normal((16, 16, 16, 4))  # psi, phi
    for _ in range(30):
        verify._covariance_draw(rng, SPEC)
        verify._sample_steps(rng, SPEC, 1, 3)
    steps = []
    for _ in range(20):
        steps.append(verify._sample_steps(rng, SPEC, 1, 3)[0])
        rng.integers(0, 3), rng.integers(1, 3), rng.integers(1, 3)  # the line
    return steps


def test_the_twisted_lines_build_each_line_shift_once(monkeypatch):
    # the one-parameter-line check builds each U(c e_i), 1 <= c <= 4, at
    # most once; the twisted draws' other builds are their own U(m), one
    # per draw.  The suite's other checks build twisted shifts too, and are
    # told apart by the function that calls twisted_shift
    elsewhere = {"compose_defect", "_wpr_checks", "_adjoint_checks", "_covariance_devs"}
    _workers(monkeypatch, 1)
    builds, real = Counter(), ops.twisted_shift

    def counted(spec, m):
        if sys._getframe(1).f_code.co_name not in elsewhere:
            builds[tuple(int(k) for k in m)] += 1
        return real(spec, m)

    monkeypatch.setattr(ops, "twisted_shift", counted)
    verify.operators_suite(n=16, samples=30, seed=42)
    drawn = Counter(tuple(int(k) for k in m) for m in _twisted_steps(np.random.default_rng(42)))
    assert not drawn - builds  # every draw builds its own U(m)
    lines = builds - drawn
    assert set(lines) <= {tuple(c * e) for e in np.eye(3, dtype=int) for c in range(1, 5)}
    assert max(lines.values()) == 1, lines
    assert len(lines) >= 9  # lines along all three axes were drawn


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
    return {"split": _split_loop(rng)}


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
    # loop's deviations.  The splitting suite holds no generator in this
    # process: its member checks must draw where its loop leaves the
    # reference generator
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
    checks = {c.name: c for c in rep.checks}
    if group == "split":
        assert [checks["split-of-member"], checks["slice-linear"]] \
            == verify._member_checks(ref, SPEC)
    else:
        assert made[0].bit_generator.state == ref.bit_generator.state
    for name, devs in want.items():
        c = checks[name]
        assert check_from_devs(c.name, c.law, devs, c.tol) == c, name
