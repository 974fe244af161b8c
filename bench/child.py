"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 child.py SPEC.json SPAWN_MONOTONIC RESULT.json``

The parent records ``time.monotonic()`` just before it starts this process
and passes it in, so ``setup_s`` spans interpreter start, the levyspde
imports and the parsing of every config of the workload (which builds its
model).  The CLI calls follow in this same process through
``levyspde.cli.main``; each is timed from the call until it returns, by
which point its artifacts are written.  CPU time and peak RSS include the
fork workers the CLI starts and reaps.

Truncated paths are counted by wrapping ``solve_path``: each truncation
writes one byte to a non-blocking pipe, which fork workers inherit and
which needs no lock, since one-byte pipe writes are atomic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _truncation_counter():
    from levyspde import solver
    from tracer import levyspde_modules, replace_everywhere

    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    os.set_blocking(write_end, False)
    original = solver.solve_path

    def solve_path(*args, **kwargs):
        record = original(*args, **kwargs)
        if record.truncated_at is not None:
            try:
                os.write(write_end, b"t")
            except BlockingIOError:  # pipe full: the count saturates, still > 0
                pass
        return record

    replace_everywhere(levyspde_modules(), original, solve_path)

    def drain() -> int:
        n = 0
        while True:
            try:
                chunk = os.read(read_end, 65536)
            except BlockingIOError:
                return n
            if not chunk:
                return n
            n += len(chunk)

    return drain


def _machine() -> dict:
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}
    except (TypeError, KeyError):  # older numpy has no dict mode; the record says unknown
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    spec_path, spawned, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from levyspde import cli, config

    for call in spec["calls"]:
        config.load_config(call["config"])
    setup_s = time.monotonic() - spawned

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    drain = _truncation_counter()

    calls = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for run_id, call in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(call["argv"])
        wall = time.perf_counter() - t0
        calls.append({
            "rc": rc, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "truncated": drain(),
        })
    after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "setup_s": setup_s,
        "calls": calls,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        + children.ru_utime + children.ru_stime,
        # ru_maxrss is in KiB on Linux; fork workers share the parent's pages,
        # so the largest process, not the sum, is the footprint
        "peak_rss_mb": max(after.ru_maxrss, children.ru_maxrss) / 1024.0,
        "machine": _machine(),
        "trace": None,
    }
    if tracer is not None:
        if spec.get("spans_out"):
            tracer.save(spec["spans_out"])
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
