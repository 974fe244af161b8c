"""Artifact-hash survey: every subcommand on every builtin model, and on the
model of each experiment config given, at seeds 0 and 7 and ``--workers``
1 and 2, with small sizes that every subcommand accepts.

    PYTHONPATH=src python tests/artifact_hashes.py OUT.json [CONFIG ...]
    PYTHONPATH=src python tests/artifact_hashes.py --compare BEFORE.json AFTER.json

A run is keyed ``<model>/<subcommand>/seed<s>/workers<w>``, where a
config's model is named by its file stem.  The manifest records each run's
exit code, its stdout line and the sha256 of every artifact except the
``*_meta.json`` sidecars, which hold wall-clock times.  ``--compare`` prints
the runs whose output differs between two manifests, so a survey made
before a change and one made after it name the runs that the change moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from levyspde.cli import COMMANDS, main
from levyspde.models import BUILTIN_IDS

SEEDS = (0, 7)
WORKERS = (1, 2)
SOLVER = {"dt": 5e-3, "T": 0.1, "level": 4}
#: one study for every subcommand; each reads its own fields and ignores the rest
STUDY = {"n_paths": 8, "samples": 64, "p_list": [2.0], "m_list": [2, 4], "delta_list": [0.01, 0.02]}
#: isometry's verdict reads a CI99 that needs at least 100 paths
PATHS = {"isometry": 100}


def run_once(model, command: str, seed: int, workers: int, x0=None) -> dict:
    """One CLI run in this process: its exit code, stdout line and artifact hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = {"schema_version": 1, "model": model, "solver": SOLVER,
               "study": dict(STUDY, n_paths=PATHS.get(command, STUDY["n_paths"])),
               "output_dir": str(out)}
        if x0 is not None:
            cfg["x0"] = x0
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([command, "--config", str(path), "--seed", str(seed), "--workers", str(workers)])
            except Exception as exc:  # a traceback is an outcome to record, not to stop at
                code = f"raised {type(exc).__name__}: {exc}"
        artifacts = {} if not out.exists() else {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if not f.name.endswith("_meta.json")}
    return {"exit": code, "stdout": stdout.getvalue().strip(), "artifacts": artifacts}


def survey(models: dict, commands=tuple(COMMANDS), seeds=SEEDS, workers=WORKERS) -> dict:
    """``models`` maps a name to (model reference, x0 or None); one entry per run."""
    return {
        f"{name}/{command}/seed{seed}/workers{w}": run_once(model, command, seed, w, x0)
        for name, (model, x0) in models.items()
        for command in commands for seed in seeds for w in workers
    }


def changed(before: dict, after: dict) -> list[str]:
    """The runs present in either manifest whose entries differ."""
    return [key for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]


def _main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        before, after = (json.loads(Path(p).read_text()) for p in argv[1:])
        keys = changed(before, after)
        for key in keys:
            print(key)
        print(f"{len(keys)} of {len(before.keys() | after.keys())} runs changed", file=sys.stderr)
        return 1 if keys else 0
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 1
    models = {name: (name, None) for name in BUILTIN_IDS}
    for path in map(Path, argv[1:]):
        raw = json.loads(path.read_text())
        models[path.stem] = (raw["model"], raw.get("x0"))
    manifest = survey(models)
    Path(argv[0]).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
