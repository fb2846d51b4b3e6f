"""Where work runs: one thread beside the caller, or forked worker processes.

``cores`` is the one count of usable cores.  ``beside`` opens the one
thread beside the calling thread that ``dynamics.evolve`` submits its
packet and its rows to, on every core count.
``run_tasks`` evaluates the task list of a ``verify`` suite on forked
worker processes, one per core; with one core, or where ``fork`` does not
exist, the tasks run in the calling process.  No other module of the
package imports ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def cores() -> int:
    """The cores this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def beside() -> ThreadPoolExecutor:
    """One thread beside the caller.  Jobs run one at a time, in the order
    submitted; leaving the ``with`` block joins the thread."""
    return ThreadPoolExecutor(1)


_TASKS = None  # the running task list, inherited by its workers


def _run_task(i: int):
    return _TASKS[i]()


def run_tasks(tasks: list) -> list:
    """``[task() for task in tasks]``, in order.

    Runs on one worker process per available core, at most one per task,
    forked after the list is stored in ``_TASKS``: the workers inherit it
    and every field a task holds, so only indices go out and only results
    come back.  A worker takes the next task when it finishes one, so the
    tasks are best listed longest first.  With one worker, or where
    ``fork`` does not exist, it evaluates in this process.  The workers are
    joined before it returns, also when a task raises; the task's exception
    is then raised here.  ``_TASKS`` is cleared on every exit, also when the
    executor cannot be made.
    """
    # imported here, so that `evolve` and `chern`, which never fork, do not
    # load them (about 0.5 MiB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _TASKS
    workers = min(cores(), len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [task() for task in tasks]
    _TASKS = tasks
    try:
        # an executor, not a multiprocessing.Pool: a worker that dies (say, out
        # of memory) raises BrokenProcessPool here instead of hanging the run
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_run_task, range(len(tasks))))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _TASKS = None
