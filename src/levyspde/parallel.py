"""Order-deterministic parallel map over path indices.

Each worker is a fork child: the callable and its context are inherited,
so a closure over a study's inputs (bundles hold closures too, which do not
pickle) reaches them as it is.  ``map_indexed`` forks W = min(workers, n)
children, one at a time, each with its own pipe.
Child k starts on CPU k of the process's affinity set (round robin), takes
tasks k, k + W, ... in order (static round robin), pickles its results into
its pipe and leaves by ``os._exit``.  The parent reads the pipes in worker
order and returns the results in index order, so every aggregation
downstream reduces in a fixed order and the output is bit-identical for
any worker count.  A task's exception comes back with its type and fields
(one that does not unpickle becomes a RuntimeError carrying the worker's
traceback), a child that ends without a result is a RuntimeError naming
its exit status or signal, and of several failures the one with the lowest
task index is raised.  No child outlives the call.

Every path study runs through ``path_rows``, which owns the split, the map
and the path order.  It splits the paths into batches, one task each, by
one rule (``split_by_rows``): one near-equal batch per worker, or more where
a batch would pass ``AUDIT_BATCH_ROWS`` solver rows.  Those batches follow
``--workers``, but their bits do not: the solver gives every row of a batch
exactly the arithmetic it would do alone, and each study reduces its paths
in path order.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import traceback

import numpy as np

from .coefficients import AUDIT_BATCH_ROWS
from .rng import path_seed
from .spaces import ConfigError

__all__ = ["map_indexed", "worker_count", "path_rows"]


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


def _start_on(cpus: list[int], k: int) -> None:
    """Move the calling fork child, worker k, to ``cpus[k % len(cpus)]``,
    then allow it the whole set again.

    Some kernels leave every fork child on the parent's CPU and do not
    balance them, so two workers on two idle CPUs would share one.  The
    placement is a start, not a pin: the kernel may still move the worker.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _serve(fn, ctx, k: int, w: int, n: int, out: int, fds: list[int], cpus: list[int]):
    """Worker k of w, in its fork child: fn(ctx, i) for i = k, k + w, ... < n,
    then one pickled reply into the pipe ``out``: the pickled results, or at
    the first failure its task index, the pickled exception (None if it does
    not pickle) and the formatted traceback.  Leaves by ``os._exit``, so it
    never returns into the caller's stack and runs no atexit handler."""
    code = 1
    try:
        for fd in fds:
            os.close(fd)
        _start_on(cpus, k)
        done, failure = [], None
        for i in range(k, n, w):
            try:
                result = fn(ctx, i)
            except BaseException as exc:
                failure = (i, _pickled(exc), traceback.format_exc())
                break
            try:
                done.append(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                failure = (i, _pickled(RuntimeError(f"task {i}'s result does not pickle: {exc!r}")), "")
                break
        with open(out, "wb") as pipe:
            pipe.write(pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _pickled(exc: BaseException) -> bytes | None:
    try:
        return pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def _reply(k: int, data: bytes, status: int) -> tuple[list, tuple | None]:
    """Worker k's results and its failure (task index, exception) or None,
    from its pipe's bytes ``data`` and its wait ``status``."""
    try:
        done, failure = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return [], (k, RuntimeError(f"fork worker {k} ended without a result ({ended})"))
    if failure is None:
        return [pickle.loads(blob) for blob in done], None
    i, blob, trace = failure
    try:
        exc = pickle.loads(blob)
    except Exception:
        exc = RuntimeError(f"task {i} failed in fork worker {k} with an exception that does not "
                           f"unpickle:\n{trace}")
    else:
        if trace:
            exc.__cause__ = RuntimeError(f"in fork worker {k}:\n{trace}")
    return [], (i, exc)


def map_indexed(fn, ctx, n: int, workers: int = 1) -> list:
    """[fn(ctx, 0), ..., fn(ctx, n-1)]; at ``workers`` > 1 computed on W =
    min(workers, n) fork children, child k taking tasks k, k + W, ... and
    starting on its own CPU.  The failure of the lowest task index is raised
    here, and no child outlives the call."""
    if workers <= 1 or n <= 1 or not hasattr(os, "fork"):
        return [fn(ctx, i) for i in range(n)]
    w = min(workers, n)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    pids, fds = [], []  # per worker; None once reaped or closed
    try:
        for k in range(w):
            fd, out = os.pipe()
            fds.append(fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, ctx, k, w, n, out, fds, cpus)
                pids.append(pid)
            finally:
                os.close(out)
        results, failures = [None] * n, []
        for k in range(w):
            fd, fds[k] = fds[k], None
            with open(fd, "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pids[k], 0)[1]
            pids[k] = None
            done, failure = _reply(k, data, status)
            if failure is None:
                results[k::w] = done
            else:
                failures.append(failure)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return results
    finally:
        for fd in fds:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def worker_count(flag_value: int | None = None) -> int:
    """The worker count: ``--workers``, else the LEVYSPDE_WORKERS env var, else
    1; anything but a positive integer is a ConfigError naming its source."""
    name, value = "--workers", str(flag_value)
    if flag_value is None:
        name, value = "LEVYSPDE_WORKERS", os.environ.get("LEVYSPDE_WORKERS") or "1"
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(name, f"expected a positive integer, got {value!r}")
    return int(value)
