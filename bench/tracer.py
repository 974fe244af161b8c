"""In-memory span tracer that wraps levyspde's public functions from outside.

The tracer never edits the package source.  It replaces, in every loaded
``levyspde`` module, each reference to a public function (a name in the
module's ``__all__``, plus ``cli.main`` and ``config.load_config``) with a
wrapper that records one span per call: name, start, end, parent span and
run id.  Models are wrapped at ``models.resolve``: the returned bundle's
coefficient callables (drift, Jacobian, diffusion, jump and their fast-path
hooks) become spans of the ``models`` layer.  The per-path worker a study
hands to ``parallel.map_indexed`` becomes a span of the study's layer.  ``GalerkinState.__post_init__``
(the validating constructor; ``unchecked_state`` bypasses it) becomes a span
of the ``spaces`` layer.

Spans live in flat ``array`` columns while the run is going and are written
out once, by ``Tracer.save``, when it ends.  Self time is computed afterwards
as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: levyspde module -> layer; ``config`` parses what the CLI reads
LAYER_OF_MODULE = {
    "cli": "cli",
    "config": "cli",
    "noise": "noise",
    "rng": "rng",
    "solver": "solver",
    "models": "models",
    "coefficients": "coefficients",
    "spaces": "spaces",
    "estimates": "estimates",
    "wellposedness": "wellposedness",
    "parallel": "parallel",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

#: bundle fields traced as ``models.<name>``; rho and eta share one name
BUNDLE_CALLABLES = {
    "drift": "drift",
    "drift_jacobian": "drift_jacobian",
    "drift_implicit_solve": "drift_implicit_solve",
    "diffusion": "diffusion",
    "diffusion_matvec": "diffusion_matvec",
    "jump": "jump",
    "jump_weighted_sum": "jump_weighted_sum",
    "rho": "rho_eta",
    "eta": "rho_eta",
    "v_norm": "v_norm",
    "local_bound": "local_bound",
}


def replace_everywhere(modules, original, replacement) -> None:
    """Point every module attribute that is ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def levyspde_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "levyspde" or n.startswith("levyspde.")]


class Tracer:
    """Span recorder; ``install`` wraps the package, ``summary`` reduces."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        # counts taken at span boundaries from the values crossing them
        self.counts = {
            "solver.steps": 0,
            "solver.truncated_paths": 0,
            "noise.jump_events": 0,
            "coefficients.audited_samples": 0,
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._id(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- counts at boundaries ------------------------------------------------

    def _on_path(self, record):
        # a record holds 1 + steps + 2 * jumps rows (jump times appear twice)
        self.counts["solver.steps"] += record.times.size - 1 - 2 * record.n_jump_entries
        if record.truncated_at is not None:
            self.counts["solver.truncated_paths"] += 1

    def _on_noise(self, realization):
        self.counts["noise.jump_events"] += len(realization.jumps)

    def _on_audit(self, report):
        self.counts["coefficients.audited_samples"] += report.entries[0].samples_used

    # -- installation --------------------------------------------------------

    def install(self):
        from levyspde import models, parallel, spaces

        modules = levyspde_modules()
        hooks = {
            "solver.solve_path": self._on_path,
            "noise.sample_noise": self._on_noise,
            "models.validate": self._on_audit,
        }
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            layer = LAYER_OF_MODULE.get(short)
            if layer is None:
                continue
            public = list(getattr(mod, "__all__", ()))
            if short == "cli":
                public = ["main"]
            elif short == "config":
                public = ["load_config"]
            for attr in public:
                fn = getattr(mod, attr, None)
                # skip re-exports and functions wrapped already
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or hasattr(fn, "__wrapped__"):
                    continue
                name = f"{short}.{attr}"
                if fn is models.resolve:
                    wrapped = self.wrap(name, self._resolving(fn))
                elif fn is parallel.map_indexed:
                    wrapped = self.wrap(name, self._mapping(fn))
                else:
                    wrapped = self.wrap(name, fn, hooks.get(name))
                replace_everywhere(modules, fn, wrapped)
        post_init = spaces.GalerkinState.__post_init__
        spaces.GalerkinState.__post_init__ = self.wrap("spaces.GalerkinState.validate", post_init)

    def _resolving(self, resolve):
        def resolve_traced(ref):
            spec = resolve(ref)
            bundle = spec.bundle
            hooks = {
                field: self.wrap(f"models.{name}", getattr(bundle, field))
                for field, name in BUNDLE_CALLABLES.items()
                if getattr(bundle, field) is not None
            }
            return dataclasses.replace(spec, bundle=dataclasses.replace(bundle, **hooks))

        return resolve_traced

    def _mapping(self, map_indexed):
        # the per-path worker belongs to the study's module, not to parallel
        def map_indexed_traced(fn, ctx, n, workers=1):
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            return map_indexed(self.wrap(name, fn), ctx, n, workers)

        return map_indexed_traced

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        name, parent, run = np.array(self.name), np.array(self.parent), np.array(self.run)
        start, end = np.array(self.start), np.array(self.end)
        return name, parent, run, start, end

    def save(self, path) -> None:
        name, parent, run, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, run=run,
                 start=start, end=end)

    def _under(self, name, parent, target: str) -> np.ndarray:
        """Mask of spans that have an ancestor named ``target``."""
        tid = self._ids.get(target, -1)
        hit = np.zeros(name.size, dtype=bool)
        cur = parent.copy()
        live = cur >= 0
        while live.any():
            hit[live] |= name[cur[live]] == tid
            cur[live] = parent[cur[live]]
            live = cur >= 0
        return hit

    def summary(self) -> dict:
        """Per-name calls, self and total seconds; per-layer self seconds."""
        name, parent, run, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        per_name = {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, n in enumerate(self.names)
        }
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for n, row in per_name.items():
            layer_self[LAYER_OF_MODULE[n.partition(".")[0]]] += row["self_s"]

        def ids(n):
            return name == self._ids.get(n, -1)

        path_ms = dur[ids("solver.solve_path")] * 1e3
        under_paths = self._under(name, parent, "solver.solve_path")
        under_audit = self._under(name, parent, "models.validate")
        return {
            "spans": int(name.size),
            "names": per_name,
            "layer_self_s": layer_self,
            "solve_path_ms": [float(np.percentile(path_ms, q)) if path_ms.size else 0.0 for q in (50, 99)],
            "newton_iters": int((ids("models.drift_jacobian") & under_paths).sum()),
            "audit_drift_calls": int((ids("models.drift") & under_audit).sum()),
            "counts": dict(self.counts),
        }
