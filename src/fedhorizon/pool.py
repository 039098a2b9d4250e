"""One executor for independent tasks, shared by training and CSV export.

``executor(task, shared, n_tasks)`` yields ``map_jobs(jobs)``, a lazy map
that gives ``task(job, shared)`` for each job, in job order. With one
worker (``worker_count``) the tasks run in-process, one as each result is
asked for. Otherwise they run in a fork pool of one worker process per
usable CPU (at most one per task): the workers inherit ``task`` and
``shared`` when they start instead of unpickling a copy each, so only the
jobs go out and only the results come back. This package starts no
threads to fork from. ``federation`` runs client trainings through it and
``synthgen.export_csv`` the formatting of ``timeseries.csv`` blocks.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager


def worker_count(n_tasks: int) -> int:
    """Worker processes for an ``executor``: one per usable CPU, at most
    one per task. One means the tasks run in-process."""
    return min(len(os.sched_getaffinity(0)), n_tasks)


# The task and shared data of the open executor, set once when each pool
# worker starts; the calling process never sets them.
_worker_task = None
_worker_shared = None


def _start_worker(task, shared) -> None:
    global _worker_task, _worker_shared
    _worker_task, _worker_shared = task, shared


def _run_in_worker(job):
    return _worker_task(job, _worker_shared)


def in_process(task, shared):
    """The in-process ``map_jobs``: a generator of ``task(job, shared)``."""
    return lambda jobs: (task(job, shared) for job in jobs)


@contextmanager
def executor(task, shared, n_tasks: int):
    """Yields ``map_jobs(jobs)``, an iterator over ``task(job, shared)``
    in job order, which must be consumed inside the ``with`` block.

    A pool is forked when the block opens, so open it before the calling
    process holds state a worker must not copy (an unflushed file
    buffer). The pool is terminated and joined on exit, also when a task
    raised; its error reaches the caller when that task's result is due.
    """
    workers = worker_count(n_tasks)
    if workers <= 1:
        yield in_process(task, shared)
        return
    pool = multiprocessing.get_context("fork").Pool(
        workers, _start_worker, (task, shared))
    try:
        yield lambda jobs: pool.imap(_run_in_worker, jobs, chunksize=1)
    finally:
        pool.terminate()
        pool.join()
