"""Order-deterministic parallel map over path indices.

Workers receive only the task index; the callable and its context are
inherited through fork, so a closure over a study's inputs (bundles hold
closures too, which do not pickle) reaches them as it is.  Results come
back in index order, so every aggregation downstream reduces in a fixed
order and the output is bit-identical for any worker count.  Every path
study runs through ``path_rows``, which owns the split, the map and the path
order.  It splits the paths into batches, one task each, by one rule
(``split_by_rows``): one near-equal batch per worker, or more where a batch
would pass ``AUDIT_BATCH_ROWS`` solver rows.  Those batches follow
``--workers``, but their bits do not: the solver gives every row of a batch
exactly the arithmetic it would do alone, and each study reduces its paths
in path order.
"""

from __future__ import annotations

import functools
import multiprocessing
import os

import numpy as np

from .coefficients import AUDIT_BATCH_ROWS
from .rng import path_seed
from .spaces import ConfigError

__all__ = ["map_indexed", "worker_count", "path_rows"]

_TASK = None


def split_by_rows(seed: int, n_paths: int, rows_per_path: int, workers: int) -> list[list[int]]:
    """Path seeds 0 .. n_paths-1 under ``seed``, split into max(workers,
    ceil(n_paths / per_task)) tasks, at most one per path, whose sizes differ
    by at most one, the longer ones first; a path solves ``rows_per_path``
    solver rows (two for a stability pair), and per_task = max(1,
    AUDIT_BATCH_ROWS // rows_per_path) paths keep a task within the row cap."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    seeds = [path_seed(seed, i) for i in range(n_paths)]
    per_task = max(1, AUDIT_BATCH_ROWS // rows_per_path)
    tasks = min(max(workers, -(-n_paths // per_task)), n_paths)
    size, extra = divmod(n_paths, tasks)
    bounds = [i * size + min(i, extra) for i in range(tasks + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def path_rows(task, seed: int, n_paths: int, rows_per_path: int, workers: int) -> np.ndarray:
    """``task(seeds)`` on each ``split_by_rows`` batch of the path seeds 0 ..
    n_paths-1 under ``seed``, one ``map_indexed`` task each, whose callable
    carries ``task``'s module and name; the k values per path (a 1-D result
    is one column) are joined in path order into a C-ordered (n_paths, k)
    float array."""
    batches = split_by_rows(seed, n_paths, rows_per_path, workers)

    @functools.wraps(task)
    def run(batches, b):
        return np.reshape(task(batches[b]), (len(batches[b]), -1))

    return np.ascontiguousarray(np.concatenate(map_indexed(run, batches, len(batches), workers)),
                                dtype=float)


def _run(i: int):
    fn, ctx = _TASK
    return fn(ctx, i)


def _place(cpus: list[int], started) -> None:
    """Pool initializer: move the k-th worker to ``cpus[k % len(cpus)]``, k
    taken from the queue ``started``, then allow it the whole set again.

    Some kernels leave every fork child on the parent's CPU and do not
    balance them, so two workers on two idle CPUs would share one.  The
    placement is a start, not a pin: the kernel may still move the worker.
    """
    k = started.get()
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    os.sched_setaffinity(0, cpus)


def map_indexed(fn, ctx, n: int, workers: int = 1) -> list:
    """[fn(ctx, 0), ..., fn(ctx, n-1)], possibly computed on fork workers,
    which start spread over the CPUs this process may use."""
    if workers <= 1 or n <= 1:
        return [fn(ctx, i) for i in range(n)]
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(ctx, i) for i in range(n)]
    place = {}
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            started = mp.SimpleQueue()
            for k in range(min(workers, n)):
                started.put(k)
            place = {"initializer": _place, "initargs": (cpus, started)}
    global _TASK
    _TASK = (fn, ctx)
    try:
        with mp.Pool(processes=min(workers, n), **place) as pool:
            chunk = max(1, n // (workers * 4))
            return pool.map(_run, range(n), chunksize=chunk)
    finally:
        _TASK = None


def worker_count(flag_value: int | None = None) -> int:
    """The worker count: ``--workers``, else the LEVYSPDE_WORKERS env var, else
    1; anything but a positive integer is a ConfigError naming its source."""
    name, value = "--workers", str(flag_value)
    if flag_value is None:
        name, value = "LEVYSPDE_WORKERS", os.environ.get("LEVYSPDE_WORKERS") or "1"
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(name, f"expected a positive integer, got {value!r}")
    return int(value)
