"""levyspde benchmark: four CLI workloads, end-to-end metrics, traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition of a workload starts a fresh interpreter (``child.py``) that
parses the workload's generated configs and runs the CLI subcommands through
``levyspde.cli.main``.  Repetitions continue until ``--seconds`` have passed;
the reported figures are medians over them.  The seed is written into every
config as ``master_seed``; the program sees nothing else of the benchmark.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions at ``--workers 1``
(plus an untraced one at the workload's own worker count when that is more)
and prints the per-layer metrics, including the trace overhead.

Every repetition checks its outputs: exit code 0 with a PASS verdict, finite
CSV values, no truncated path, CSV bytes identical to the run's first
repetition (across reruns, worker counts and tracing), and, at the reference
seed and sizes, CSV values equal to ``reference.json`` within the workload's
tolerance.  A call that fails a check counts all its operations as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: a run must end within 180 s: no repetition starts when it would end past
#: RUN_BUDGET_S, and none may run past RUN_BUDGET_S + GRACE_S
RUN_BUDGET_S = 150.0
GRACE_S = 25.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result line is printed."""


@dataclass(frozen=True)
class Call:
    label: str  # model id; with the workload name, the reference key
    command: str  # CLI subcommand
    config: dict
    csv: str  # artifact whose values are checked
    ops: int  # path solves, or audited samples for ``check``


def _config(model: str, solver: dict, study: dict, seed: int) -> dict:
    return {"schema_version": 1, "model": model, "solver": solver, "study": study,
            "master_seed": seed}


def _ensemble_heat(seed: int, s: dict) -> list[Call]:
    n = s["n_paths"]
    study = {"n_paths": n, "p_list": [2, 4], "m_list": [8, 32]}
    cfg = _config("heat", {"dt": 1e-3, "T": 1.0, "level": 8}, study, seed)
    return [Call("heat", "energy", cfg, "energy.csv", 2 * n)]


def _newton_stability(seed: int, s: dict) -> list[Call]:
    solver = {"dt": 1e-3, "T": 0.25, "level": 8}
    # each stability path solves the pair (x0_a, x0_b) on one realization
    return [
        Call(model, "stability", _config(model, solver, {"n_paths": s[key]}, seed),
             "stability.csv", 2 * s[key])
        for model, key in (("allen_cahn", "allen_cahn_paths"), ("burgers1d", "burgers1d_paths"))
    ]


AUDIT_MODELS = ("heat", "p_laplacian", "allen_cahn", "burgers1d", "grad_noise_linear")


def _audit_zoo(seed: int, s: dict) -> list[Call]:
    solver = {"dt": 1e-3, "T": 1.0, "level": 8}
    return [
        Call(model, "check", _config(model, solver, {"samples": s["samples"]}, seed),
             "check.csv", s["samples"])
        for model in AUDIT_MODELS
    ]


def _residual_replay(seed: int, s: dict) -> list[Call]:
    n = s["n_paths"]
    study = {"n_paths": n, "dt_levels": [4e-3, 2e-3, 1e-3]}
    cfg = _config("heat", {"dt": 1e-3, "T": 0.5, "level": 8}, study, seed)
    return [Call("heat", "residual", cfg, "residual.csv", 3 * n)]


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int, dict], list[Call]]  # (seed, sizes) -> CLI calls
    sizes: dict
    workers: int
    rtol: float  # CSV tolerance against the reference values
    atol: float


#: Why each workload exists is recorded in BENCHMARK.json; the predicted
#: effect of each layer metric, and what was left out, in predictions.json.
#: Heat runs closed-form hooks whose per-path states must stay bit-exact
#: (tolerance 0).  Newton models may differ by 1e-12 relative once solves
#: are batched.  Audit margins are differences of large terms, so they get
#: the audits' own quadrature floor, 1e-9 absolute, on top.
#: allen_cahn keeps 48 stability paths: at 16, one path jumping in the first
#: step lifts the mean past the verdict's 1% slack, which ignores the CI99
#: (seeds 103 and 138 of 0-299 fail; none of 0-299 at 48).
WORKLOADS = {
    "ensemble_heat": Workload(_ensemble_heat, {"n_paths": 100}, 2, 0.0, 0.0),
    "newton_stability": Workload(
        _newton_stability, {"allen_cahn_paths": 48, "burgers1d_paths": 3}, 1, 1e-12, 0.0),
    "audit_zoo": Workload(_audit_zoo, {"samples": 250}, 1, 1e-12, 1e-9),
    "residual_replay": Workload(_residual_replay, {"n_paths": 24}, 2, 0.0, 0.0),
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _nonfinite_cells(name: str, text: str) -> list[str]:
    """Non-finite numeric cells, except energy.csv's ratio ci99 (NaN by design)."""
    rows = _rows(text)
    header = rows[1]
    bad = []
    for row in rows[2:]:
        for col, cell in zip(header, row):
            value = _number(cell)
            if value is None or math.isfinite(value):
                continue
            if name == "energy.csv" and col == "ci99" and row[0] == "ratio":
                continue
            bad.append(f"{col}={cell}")
    return bad


def _mismatches(text: str, reference: str, rtol: float, atol: float) -> int:
    got, want = _rows(text), _rows(reference)
    if len(got) != len(want):
        return max(len(got), len(want))
    bad = 0
    for row_g, row_w in zip(got, want):
        if len(row_g) != len(row_w):
            bad += 1
            continue
        for a, b in zip(row_g, row_w):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                bad += 1
            elif not (math.isnan(x) and math.isnan(y)) and not abs(x - y) <= rtol * max(abs(x), abs(y)) + atol:
                bad += 1
    return bad


def _load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    # threaded OpenBLAS would put 2 threads in each of 2 fork workers on 2 cores
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("LEVYSPDE_WORKERS", None)
    return env


def _spawn(spec: dict, work: Path, deadline: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline + GRACE_S - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned), str(result_path)],
        env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"a repetition ran past {timeout:.0f} s")
    if proc.returncode != 0 or not result_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError("benchmark child failed: " + " | ".join(tail))
    return json.loads(result_path.read_text())


class Run:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, sizes: dict | None, work: Path, deadline: float):
        self.name, self.seed, self.work, self.deadline = name, seed, work, deadline
        self.spec = WORKLOADS[name]
        self.sizes = dict(sizes or self.spec.sizes)
        self.calls = self.spec.calls(seed, self.sizes)
        ref = _load_reference()
        self.reference = None
        if ref.get("seed") == seed and ref.get("sizes", {}).get(name) == self.sizes:
            self.reference = ref["csv"]
        self.first_csv: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reps = 0
        work.mkdir(parents=True, exist_ok=True)
        for i, call in enumerate(self.calls):
            (work / f"config{i}.json").write_text(json.dumps(call.config))

    def rep(self, workers: int, trace: bool = False, spans_out: Path | None = None) -> dict:
        self.reps += 1
        rep_dir = self.work / f"rep{self.reps}"
        outs = [rep_dir / f"{i}-{call.label}" for i, call in enumerate(self.calls)]
        spec = {
            "src": str(SRC),
            "trace": trace,
            "spans_out": str(spans_out) if spans_out else None,
            "calls": [
                {"config": str(self.work / f"config{i}.json"),
                 "argv": [call.command, "--config", str(self.work / f"config{i}.json"),
                          "--workers", str(workers), "--out", str(out)]}
                for i, (call, out) in enumerate(zip(self.calls, outs))
            ],
        }
        rep_dir.mkdir(parents=True)
        result = _spawn(spec, rep_dir, self.deadline)
        result["wall_s"] = sum(c["wall_s"] for c in result["calls"])
        result["ops"] = sum(call.ops for call in self.calls)
        result["artifact_bytes"] = sum(
            f.stat().st_size for out in outs if out.is_dir() for f in out.iterdir() if f.is_file())
        for call, out, got in zip(self.calls, outs, result["calls"]):
            self._check(call, out, got)
        shutil.rmtree(rep_dir)
        return result

    def _check(self, call: Call, out: Path, got: dict) -> None:
        key = f"{self.name}/{call.label}"
        problems = []
        if got["rc"] != 0 or " PASS: " not in got["stdout"]:
            problems.append(f"exit {got['rc']}: {got['stdout'].strip() or got['stderr'].strip()}")
        text = (out / call.csv).read_text() if (out / call.csv).exists() else ""
        if not text:
            problems.append(f"{call.csv} missing")
        else:
            bad = _nonfinite_cells(call.csv, text)
            if bad:
                problems.append(f"non-finite values {bad[:3]}")
            first = self.first_csv.setdefault(key, text)
            if text != first:
                problems.append(f"{call.csv} differs from the run's first repetition")
            if self.reference is not None:
                n = _mismatches(text, self.reference[key], self.spec.rtol, self.spec.atol)
                if n:
                    problems.append(f"{n} values differ from reference.json")
        self.attempted += call.ops
        if problems:
            self.failed += call.ops
            self.problems.extend(f"{key}: {p}" for p in problems)
        elif got["truncated"]:
            self.failed += min(got["truncated"], call.ops)
            self.problems.append(f"{key}: {got['truncated']} truncated paths")

    def out_of_time(self, started: float, seconds: float, last: float) -> bool:
        """Stop when the next repetition would end nearer past ``seconds``
        than short of it, or past the run budget."""
        now = time.monotonic()
        return now + 0.5 * last - started >= seconds or now + 1.5 * last > self.deadline


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    reps = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(run.rep(run.spec.workers))
        if run.out_of_time(started, seconds, time.monotonic() - t0):
            break
    metrics = {
        "wall_s": _median(r["wall_s"] for r in reps),
        "ops_per_s": _median(r["ops"] / r["wall_s"] for r in reps),
        "setup_s": _median(r["setup_s"] for r in reps),
        "cpu_s": _median(r["cpu_s"] for r in reps),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, reps


MODEL_CALLABLES = ("drift", "drift_jacobian", "drift_implicit_solve", "diffusion",
                   "diffusion_matvec", "jump", "jump_weighted_sum", "rho_eta", "v_norm")
AUDITS = ("audit_hemicontinuity", "audit_local_monotonicity", "audit_coercivity_growth",
          "audit_sequential_continuity")


def layer_metrics(trace: dict, artifact_bytes: int) -> dict:
    """Per-layer figures of one traced repetition."""
    names, counts = trace["names"], trace["counts"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    m = {
        "solver.solve_path.calls": get("solver.solve_path", "calls"),
        "solver.solve_path.self_s": get("solver.solve_path", "self_s"),
        "solver.solve_path.ms_p50": trace["solve_path_ms"][0],
        "solver.solve_path.ms_p99": trace["solve_path_ms"][1],
        "solver.steps": counts["solver.steps"],
        "solver.newton_iters": trace["newton_iters"],
        "solver.truncated_paths": counts["solver.truncated_paths"],
    }
    for c in MODEL_CALLABLES:
        m[f"models.{c}.calls"] = get(f"models.{c}", "calls")
        m[f"models.{c}.self_s"] = get(f"models.{c}", "self_s")
    for a in AUDITS:
        m[f"coefficients.{a}.self_s"] = get(f"coefficients.{a}", "self_s")
    audited = counts["coefficients.audited_samples"]
    m["coefficients.drift_calls_per_sample"] = trace["audit_drift_calls"] / audited if audited else 0.0
    solve_total = get("solver.solve_path", "total_s")
    m.update({
        "rng.derive_rng.calls": get("rng.derive_rng", "calls"),
        "rng.derive_rng.self_s": get("rng.derive_rng", "self_s"),
        "spaces.validated_states": get("spaces.GalerkinState.validate", "calls"),
        "estimates.discrete_energy_residual.calls": get("estimates.discrete_energy_residual", "calls"),
        "estimates.discrete_energy_residual.self_s": get("estimates.discrete_energy_residual", "self_s"),
        "estimates.replay_to_solve": (
            get("estimates.discrete_energy_residual", "total_s") / solve_total if solve_total else 0.0),
        "estimates.energy_table.self_s": get("estimates.energy_table", "self_s"),
        "noise.sample_noise.calls": get("noise.sample_noise", "calls"),
        "noise.sample_noise.self_s": get("noise.sample_noise", "self_s"),
        "noise.jump_events": counts["noise.jump_events"],
        "wellposedness.weighted_stability_mc.self_s": get("wellposedness.weighted_stability_mc", "self_s"),
        "parallel.map_indexed.wall_s": get("parallel.map_indexed", "total_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.artifact_bytes": artifact_bytes,
        "trace.spans": trace["spans"],
    })
    for layer, value in trace["layer_self_s"].items():
        m[f"layer.{layer}.self_s"] = value
    return m


def per_layer(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced and traced repetitions at one worker, plus an untraced one at
    the workload's own worker count when that is more; per-layer figures are
    medians over these cycles."""
    spans_out = RUNS / f"{run.name}.spans.npz"  # the last traced repetition
    cycles = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        cycle = {}
        if run.spec.workers > 1:
            cycle["parallel"] = run.rep(run.spec.workers)
        cycle["serial"] = run.rep(1)
        cycle["traced"] = run.rep(1, trace=True, spans_out=spans_out)
        cycles.append(cycle)
        if run.out_of_time(started, seconds, time.monotonic() - t0):
            break
    per_cycle = [layer_metrics(c["traced"]["trace"], c["traced"]["artifact_bytes"]) for c in cycles]
    metrics = {k: _median(m[k] for m in per_cycle) for k in per_cycle[0]}
    metrics["trace.overhead"] = _median(
        c["traced"]["wall_s"] / c["serial"]["wall_s"] - 1.0 for c in cycles)
    metrics["parallel.efficiency"] = 0.0
    if run.spec.workers > 1:
        serial = _median(c["serial"]["wall_s"] for c in cycles)
        parallel = _median(c["parallel"]["wall_s"] for c in cycles)
        metrics["parallel.efficiency"] = serial / (run.spec.workers * parallel)
    reps = [dict(r, kind=k) for c in cycles for k, r in c.items()]
    return metrics, reps


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload; returns the result object plus run details."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run = Run(name, seed, sizes, work, time.monotonic() + RUN_BUDGET_S)
    try:
        values, reps = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    disagree = set(units) ^ set(values)
    if disagree:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(disagree)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "sizes": run.sizes,
        "machine": reps[0]["machine"], "problems": run.problems,
        "reps": [{k: r[k] for k in ("kind", "wall_s", "setup_s", "cpu_s", "peak_rss_mb") if k in r}
                 for r in reps],
    }
    (RUNS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, detail=detail), indent=1) + "\n")
    return dict(result, detail=detail)


def _report(result: dict) -> None:
    d = result["detail"]
    mach = d["machine"]
    print(f"== {d['workload']} seed={d['seed']} trace={d['trace']} sizes={d['sizes']} "
          f"reps={len(d['reps'])}")
    print(f"   machine: nproc={mach['nproc']} python={mach['python']} numpy={mach['numpy']} "
          f"blas={mach['blas']['name']} {mach['blas']['version']} threads={mach['threads']}")
    for name, m in result["metrics"].items():
        print(f"   {name:48s} {m['value']:>14.6g} {m['unit']}")
    for p in d["problems"][:10]:
        print(f"   FAILED CHECK {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levyspde" / "cli.py").is_file():
        print(f"bench: no levyspde source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for r in results:
        _report(r)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['detail']['workload']}.{k}": v
                        for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
