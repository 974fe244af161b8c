"""Order-deterministic parallel map over path indices.

Workers receive only the task index; the task context (bundles hold
closures, which do not pickle) is inherited through fork.  Results come
back in index order, so every aggregation downstream reduces in a fixed
order and the output is bit-identical for any worker count.  An ensemble
study splits its paths into fixed batches (``batch_seeds``), one task each,
so the batches never depend on the workers either.
"""

from __future__ import annotations

import multiprocessing
import os

from .rng import path_seed

__all__ = ["map_indexed", "worker_count", "batch_seeds"]

#: paths per study task when the study names no batch size of its own
STUDY_BATCH = 8

_TASK = None


def batch_seeds(seed: int, n_paths: int, batch: int | None = None) -> list[list[int]]:
    """Path seeds 0 .. n_paths-1 under ``seed``, split into tasks of ``batch``
    paths (``STUDY_BATCH`` by default); the last task may be shorter."""
    batch = batch or STUDY_BATCH
    seeds = [path_seed(seed, i) for i in range(n_paths)]
    return [seeds[i : i + batch] for i in range(0, n_paths, batch)]


def _run(i: int):
    fn, ctx = _TASK
    return fn(ctx, i)


def map_indexed(fn, ctx, n: int, workers: int = 1) -> list:
    """[fn(ctx, 0), ..., fn(ctx, n-1)], possibly computed on fork workers."""
    if workers <= 1 or n <= 1:
        return [fn(ctx, i) for i in range(n)]
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(ctx, i) for i in range(n)]
    global _TASK
    _TASK = (fn, ctx)
    try:
        with mp.Pool(processes=min(workers, n)) as pool:
            chunk = max(1, n // (workers * 4))
            return pool.map(_run, range(n), chunksize=chunk)
    finally:
        _TASK = None


def worker_count(flag_value: int | None = None) -> int:
    """Resolve the worker count from a flag or the LEVYSPDE_WORKERS env var."""
    if flag_value is not None and flag_value > 0:
        return flag_value
    env = os.environ.get("LEVYSPDE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1
