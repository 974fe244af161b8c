"""Regenerate ``reference.json``: the CSV artifacts of every workload at the
reference seed and the default sizes, one untraced repetition each.

Usage (from the repository root): ``python3 bench/make_reference.py``

Run it only when a workload's inputs change; a change to the program must
reproduce the stored values within the workload's tolerance instead.
"""

import json
import shutil
import time

import run as bench

SEED = 0


def main() -> None:
    csv, sizes = {}, {}
    for name, spec in bench.WORKLOADS.items():
        work = bench.RUNS / f"reference-{name}"
        r = bench.Run(name, SEED, None, work, time.monotonic() + bench.RUN_BUDGET_S)
        try:
            r.rep(spec.workers)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        csv.update(r.first_csv)
        sizes[name] = r.sizes
    out = {"seed": SEED, "sizes": sizes, "csv": csv}
    (bench.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
