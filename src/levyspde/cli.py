"""Experiment runner: every study as a subcommand with reproducible seeds.

Exit codes: 0 study passed, 2 study failed its verdict, 1 usage or config
error.  Artifact CSV bodies are byte-stable across reruns and worker
counts; wall-clock metadata lives only in the JSON sidecars.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimates, models, noise, wellposedness
from .coefficients import admissible_p_range
from .config import ConfigError, ExperimentConfig, checked_seed, load_config
from .parallel import worker_count
from .solver import StoppingTimeRule, apply_stopping, solve_path
from .spaces import read

#: inequality/estimate anchor named in each artifact's header comment row
ANCHORS = {
    "check": "Hypotheses (H.1)-(H.6) / (H.2)*-(H.6)*",
    "simulate": "Eq. (3.17) Galerkin system",
    "energy": "Lemma 3.1 / Eq. (3.18)",
    "residual": "Eq. (3.19) squared-norm balance",
    "modulus": "Eq. (3.37) / Aldous condition (3.035)",
    "uniqueness": "Theorem 3.2 pathwise uniqueness",
    "stability": "Eq. (3.77) weighted stability",
    "depend": "Theorem 2.2 / Eq. (3.14)",
    "converge": "Eq. (3.54) Galerkin convergence",
    "prange": "Eqs. (4.7)-(4.9), (410), (412)",
    "isometry": "Eq. (21) isometry",
}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(path: Path, anchor: str, columns, rows, fmt: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = {
            "verifies": anchor,
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"# verifies: {anchor}", ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")


def _write_sidecar(path: Path, exp: ExperimentConfig, study: str, verdict: bool, extra=None) -> None:
    meta = {
        "study": study,
        "verifies": ANCHORS[study],
        "model": exp.model.id,
        "seed": exp.master_seed,
        "solver": {
            "dt": exp.solver.dt,
            "T": exp.solver.T,
            "level": exp.solver.level,
            "scheme": exp.solver.scheme,
        },
        "pass": bool(verdict),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        meta.update(_strict(extra))
    path.write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")


def _strict(value):
    """``value`` with every non-finite float written as None: strict JSON, not NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _truncation_suffix(truncated: int, total: int) -> str:
    """The end of a path study's summary line: "; N of M paths truncated", or nothing."""
    return f"; {truncated} of {total} paths truncated" if truncated else ""


def _study_paths(exp: ExperimentConfig, default: int, least: int = 1) -> int:
    """``study.n_paths``, at least ``least``: a verdict that reads a CI99 needs two."""
    n_paths = read(exp.study, "n_paths", "study", int, default)
    if n_paths < least:
        raise ConfigError("study.n_paths", f"n_paths must be >= {least}")
    return n_paths


def _study_levels(exp: ExperimentConfig, default: list[int]) -> list[int]:
    """``study.m_list``: distinct whole Galerkin levels in [1, dimension_cap]."""
    values = read(exp.study, "m_list", "study", list, default)
    cap = exp.model.triple.dimension_cap
    if any(not 1 <= m <= cap or m != int(m) for m in values) or len(set(values)) < len(values):
        raise ConfigError("study.m_list", f"expected distinct whole levels in [1, {cap}], got {values}")
    return [int(m) for m in values]


def _two_distinct(field: str, values, kind: str = "entries") -> None:
    """A slope fit or a comparison across entries needs two distinct ones."""
    if len(set(values)) < 2:
        raise ConfigError(field, f"expected at least two distinct {kind}, got {values}")


def _check_p_admissibility(exp: ExperimentConfig, field: str, p_list) -> None:
    """Every moment order of ``field`` is at least 2 and, in part II, at most
    the admissible range's ``p_max`` (any order when it is unbounded)."""
    result = admissible_p_range(exp.model.constants) if exp.model.regime == "part2" else None
    for p in p_list:
        if p < 2.0:
            raise ConfigError(field, f"moment orders start at 2, got p={p:g}")
        if result is not None and (result.empty or p > result.p_max):
            raise ConfigError(
                field,
                f"p={p:g} lies outside the admissible range "
                f"(p_max={result.p_max:g}, chi={result.chi:g})",
            )


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (verdict, summary_line)
# ---------------------------------------------------------------------------


def _cmd_check(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    samples = read(exp.study, "samples", "study", int, 1000)
    if samples < 1:
        raise ConfigError("study.samples", "the audits need at least one sample")
    report = models.validate(exp.model, samples=samples, seed=exp.master_seed)
    rows = [
        (e.name, e.verdict, e.worst_margin, e.samples_used)
        for e in report.entries
    ]
    _write_table(out / "check.csv", ANCHORS["check"], ("hypothesis", "verdict", "worst_margin", "samples"), rows, fmt)
    report_json = _strict([e.to_json_dict() for e in report.entries])
    (out / "check_report.json").write_text(json.dumps(report_json, indent=2, allow_nan=False) + "\n")
    ok = report.passed()
    broken = [e for e in report.entries if "coefficient" in e.witness]
    if broken:
        return False, "; ".join(
            f"{e.name}: {e.witness['coefficient']} evaluated to a non-finite value" for e in broken
        )
    worst = report.worst()
    return ok, f"{len(report.entries)} hypotheses audited, worst margin {worst.worst_margin:.3e} ({worst.name})"


def _cmd_simulate(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    stopping_n = read(exp.study, "stopping_N", "study", float, None)
    try:
        rule = None if stopping_n is None else StoppingTimeRule(stopping_n)
    except ValueError as exc:
        raise ConfigError("study.stopping_N", str(exc)) from None
    record = solve_path(exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver,
                        seed=exp.master_seed)
    tau = None
    if rule is not None:
        record, tau = apply_stopping(record, rule, beta=exp.model.constants.beta)
    cols = ["time", "is_jump_post"] + [f"coeff_{j + 1}" for j in range(record.level)]
    cols += ["norm_H", "norm_V"]
    rows = [
        [record.times[k], bool(record.is_jump_post[k])]
        + list(record.states[k])
        + [record.norm_h[k], record.norm_v[k]]
        for k in range(record.times.size)
    ]
    _write_table(out / "path.csv", ANCHORS["simulate"], cols, rows, fmt)
    ok = record.truncated_at is None
    extra = {"jump_entries": record.n_jump_entries, "stopped_at": tau}
    _write_sidecar(out / "path_meta.json", exp, "simulate", ok, extra)
    return ok, f"{record.times.size} entries, {record.n_jump_entries} jumps" + (
        f", stopped at {tau:g}" if tau is not None and tau < exp.solver.T else ""
    )


def _cmd_energy(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    p_list = read(exp.study, "p_list", "study", list, [2.0])
    m_list = _study_levels(exp, [exp.solver.level])
    n_paths = _study_paths(exp, 200, least=2)
    _check_p_admissibility(exp, "study.p_list", p_list)
    if not read(exp.study, "skip_audit", "study", bool, False):
        # warn-only precondition: the estimate is still computed when the
        # declared hypothesis constants fail their quick audit
        quick = models.validate(exp.model, samples=64, seed=exp.master_seed)
        if not quick.passed():
            bad = [e.name for e in quick.entries if not e.passed]
            print(
                f"levyspde energy: warning: model {exp.model.id!r} fails its "
                f"hypothesis audit ({', '.join(bad)}); estimates may not be bounded",
                file=sys.stderr,
            )
    beta = exp.model.constants.beta
    rows = []
    ratios = {p: [] for p in p_list}
    truncated = []
    for m in m_list:
        cfg = replace(exp.solver, level=m)
        stats = estimates.energy_table(
            exp.model.bundle, exp.model.triple, exp.initial_state(), p_list, cfg,
            n_paths, exp.master_seed, beta=beta, workers=workers,
        )
        for st in stats:
            for qty, est, ci in (
                ("sup_H_p", st.sup_h_p, st.ci99["sup_h_p"]),
                ("int_V_beta_p2", st.int_v_beta_p2, st.ci99["int_v_beta_p2"]),
                ("mixed", st.mixed, st.ci99["mixed"]),
                ("ratio", st.ratio, float("nan")),
            ):
                rows.append((qty, st.p, m, st.dt, n_paths, est, ci, exp.master_seed))
            ratios[st.p].append(st.ratio)
        truncated.append(stats[0].truncated_paths)
    _write_table(
        out / "energy.csv", ANCHORS["energy"],
        ("quantity", "p", "m", "dt", "n_paths", "estimate", "ci99", "seed"), rows, fmt,
    )
    ok = all(np.isfinite(v) for vals in ratios.values() for v in vals)
    spread = 1.0
    if not ok:
        spread = float("nan")
    elif len(m_list) > 1:
        spread = max(max(v) / min(v) for v in ratios.values() if min(v) > 0)
        ok = spread <= 2.0
    _write_sidecar(out / "energy_meta.json", exp, "energy", ok,
                   {"ratio_spread": spread, "truncated_paths": truncated})
    summary = f"levels {m_list}, ratio spread {spread:.3f} (uniformity threshold 2.0)"
    return ok, summary + _truncation_suffix(sum(truncated), n_paths * len(m_list))


def _cmd_residual(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    dt_levels = read(exp.study, "dt_levels", "study", list, [4e-3, 2e-3, 1e-3])
    _two_distinct("study.dt_levels", dt_levels)
    n_paths = _study_paths(exp, 256)
    try:
        levels = [replace(exp.solver, dt=dt) for dt in sorted(dt_levels, reverse=True)]
    except ValueError as exc:
        raise ConfigError("study.dt_levels", str(exc)) from None
    # a truncated path's total is NaN: no balance to replay, the slope fails
    totals = estimates.residual_totals(
        exp.model.bundle, exp.model.triple, exp.initial_state(), levels,
        n_paths, exp.master_seed, workers=workers,
    )
    means = [abs(row.mean()) for row in totals]
    rows = [(cfg.dt, row.mean(), np.abs(row).mean(), n_paths, exp.master_seed)
            for cfg, row in zip(levels, totals)]
    slope = float(np.polyfit(np.log2(sorted(dt_levels, reverse=True)), np.log2(means), 1)[0])
    _write_table(
        out / "residual.csv", ANCHORS["residual"],
        ("dt", "mean_total", "mean_abs_total", "n_paths", "seed"), rows, fmt,
    )
    ok = 0.7 <= slope <= 1.3
    truncated = [int(np.isnan(row).sum()) for row in totals]
    _write_sidecar(out / "residual_meta.json", exp, "residual", ok,
                   {"slope": slope, "dt_levels": [cfg.dt for cfg in levels], "truncated_paths": truncated})
    summary = f"summed-residual refinement slope {slope:.3f} (target [0.7, 1.3])"
    return ok, summary + _truncation_suffix(sum(truncated), totals.size)


def _cmd_modulus(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    dt = exp.solver.dt
    deltas = read(exp.study, "delta_list", "study", list, [4 * dt, 8 * dt, 16 * dt, 32 * dt])
    n_paths = _study_paths(exp, 200, least=2)
    try:
        steps = [estimates.delta_steps(d, dt, exp.solver.n_steps) for d in deltas]
    except ValueError as exc:
        raise ConfigError("study.delta_list", str(exc)) from None
    # two shifts a rounding apart are one grid shift
    _two_distinct("study.delta_list", steps, "shifts in grid steps")
    beta = read(exp.study, "beta_exp", "study", float, exp.model.constants.beta)
    result = estimates.modulus_study(
        exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver, deltas, beta,
        n_paths, exp.master_seed, workers=workers,
    )
    rows = [
        (d, v, c, r)
        for d, v, c, r in zip(result.deltas, result.values, result.ci99, result.rooted_values())
    ]
    _write_table(out / "modulus.csv", ANCHORS["modulus"],
                 ("delta", "value", "ci99", "rooted_value"), rows, fmt)
    ok = result.consistent_with_tightness
    _write_sidecar(out / "modulus_meta.json", exp, "modulus", ok,
                   {"slope": result.log_slope(), "label": result.label,
                    "truncated_paths": result.truncated_paths})
    summary = f"{result.label}; rooted log-log slope {result.log_slope():.3f}"
    return ok, summary + _truncation_suffix(result.truncated_paths, n_paths)


def _cmd_uniqueness(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    n_paths = _study_paths(exp, 16)
    stress = read(exp.study, "stress", "study", bool, False)
    sups = wellposedness.uniqueness_sups(
        exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver,
        n_paths, exp.master_seed, stress=stress, workers=workers,
    )
    sup = float(np.max(sups))
    _write_table(out / "uniqueness.csv", ANCHORS["uniqueness"],
                 ("mode", "n_paths", "max_sup_difference", "seed"),
                 [("stress" if stress else "replay", n_paths, sup, exp.master_seed)], fmt)
    scale = float(np.linalg.norm(exp.initial_state()))
    truncated = int(np.isnan(sups).sum())
    # a truncated path's sup is NaN, which fails the comparisons too
    ok = truncated == 0 and (sup == 0.0 if not stress else sup <= 1e-9 * max(scale, 1.0))
    _write_sidecar(out / "uniqueness_meta.json", exp, "uniqueness", ok,
                   {"max_sup_difference": sup, "truncated_paths": truncated})
    summary = f"max sup-difference {sup:.3e} over {n_paths} paths"
    return ok, summary + _truncation_suffix(truncated, n_paths)


def _cmd_stability(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    n_paths = _study_paths(exp, 200)
    x0 = exp.initial_state()
    x0_b = read(exp.study, "x0_b", "study", np.ndarray, None)
    if x0_b is None:
        x0_b = x0.copy()
        x0_b[0] += 0.1
    result = wellposedness.weighted_stability_mc(
        exp.model.bundle, exp.model.triple, exp.model.constants, x0, x0_b,
        exp.solver, n_paths, exp.master_seed, workers=workers,
    )
    rows = list(zip(result.times, result.lhs_curve, result.ci99))
    _write_table(out / "stability.csv", ANCHORS["stability"],
                 ("time", "weighted_mean_sq_difference", "ci99"), rows, fmt)
    _write_sidecar(out / "stability_meta.json", exp, "stability", result.passed,
                   {"bound": result.bound, "eps_scheme": result.eps_scheme,
                    "worst_t": result.worst_t, "worst_margin": result.worst_margin,
                    "truncated_paths": result.truncated_paths})
    summary = (
        f"lhs <= {result.bound:.6g}*(1+{result.eps_scheme:g}) at every grid time; "
        f"worst margin {result.worst_margin:.3e} at t={result.worst_t:g}"
    )
    return result.passed, summary + _truncation_suffix(result.truncated_paths, n_paths)


def _cmd_depend(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    deltas = read(exp.study, "perturbations", "study", list, [1e-1, 1e-2, 1e-3])
    _two_distinct("study.perturbations", [d for d in deltas if d > 0.0], "positive entries")
    p = read(exp.study, "p", "study", float, 2.0)
    _check_p_admissibility(exp, "study.p", [p])
    n_paths = _study_paths(exp, 200)
    table = wellposedness.continuous_dependence_study(
        exp.model.bundle, exp.model.triple, exp.initial_state(), deltas, p,
        exp.solver, n_paths, exp.master_seed, workers=workers,
    )
    rows = list(zip(table.deltas, table.values, table.ci99))
    _write_table(out / "depend.csv", ANCHORS["depend"],
                 ("delta", "sup_difference_p_moment", "ci99"), rows, fmt)
    order = np.argsort(table.deltas)
    slope = table.log_slope()
    # a truncated path makes the table NaN, which fails the comparisons too
    ok = bool(table.truncated_paths == 0 and np.all(np.diff(table.values[order]) >= 0.0)
              and np.isfinite(slope))
    _write_sidecar(out / "depend_meta.json", exp, "depend", ok,
                   {"log_slope": slope, "p": p, "truncated_paths": table.truncated_paths})
    summary = f"table log-log slope {slope:.3f} at p={p:g}"
    return ok, summary + _truncation_suffix(table.truncated_paths, n_paths)


def _cmd_converge(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    m_list = _study_levels(exp, [4, 8, 16, 32])
    _two_distinct("study.m_list", m_list)
    n_paths = _study_paths(exp, 100, least=2)
    table = wellposedness.galerkin_convergence(
        exp.model.bundle, exp.model.triple, exp.initial_state(), m_list, exp.solver,
        n_paths, exp.master_seed, beta=exp.model.constants.beta, workers=workers,
    )
    rows = list(zip(table.levels, table.distances, table.ci99))
    _write_table(out / "converge.csv", ANCHORS["converge"],
                 ("m", "distance_to_reference", "ci99"), rows, fmt)
    d, c = table.distances, table.ci99
    # a truncated path makes its distances NaN, which fails the comparisons too
    ok = table.truncated_paths == 0 and all(d[i + 1] <= d[i] + c[i] + c[i + 1] for i in range(d.size - 1))
    _write_sidecar(out / "converge_meta.json", exp, "converge", ok,
                   {"reference_level": table.reference_level, "truncated_paths": table.truncated_paths})
    summary = f"distances {['%.3e' % v for v in d]} vs reference m={table.reference_level}"
    return ok, summary + _truncation_suffix(table.truncated_paths, n_paths)


def _cmd_prange(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    # the moment side condition depends on an imported constant the source
    # material never pins; the study may replace the default guess by base^p
    base = read(exp.study, "c_tilde_base", "study", float, None)
    result = admissible_p_range(exp.model.constants,
                                c_tilde=None if base is None else lambda p: base**p)
    rows = [
        (r["p"], r["c1"], r["c2"], r["growth_ok"], r["admissible_ok"], r["moment_ok"])
        for r in result.rows
    ]
    _write_table(out / "prange.csv", ANCHORS["prange"],
                 ("p", "C1", "C2", "growth_ok", "admissible_ok", "moment_ok"), rows, fmt)
    ok = not result.empty
    p_max = "inf" if result.unbounded else f"{result.p_max:g}"
    _write_sidecar(out / "prange_meta.json", exp, "prange", ok,
                   {"chi": result.chi, "p_max": p_max, "unbounded": result.unbounded})
    # a bounded p_max is itself admissible; an unbounded range has no end point
    interval = f"[2, {p_max})" if result.unbounded else f"[2, {p_max}]"
    return ok, f"chi={result.chi:g}, admissible p in {interval}" + (
        " (unbounded: vanishing noise growth)" if result.unbounded else ""
    )


_ISOMETRY_INTEGRANDS = {
    "constant": lambda t, z: np.array([1.0]),
    "time_linear": lambda t, z: np.array([t]),
    "mark_weighted": lambda t, z: np.array([z]),
}


def _cmd_isometry(exp: ExperimentConfig, out: Path, fmt: str, workers: int):
    n_paths = _study_paths(exp, 10000, least=100)
    names = exp.study.get("integrands")
    names = list(_ISOMETRY_INTEGRANDS) if names is None else names
    if not isinstance(names, list) or not names or not all(
            isinstance(n, str) and n in _ISOMETRY_INTEGRANDS for n in names):
        raise ConfigError("study.integrands", f"expected a nonempty list of {list(_ISOMETRY_INTEGRANDS)}")
    mark_space = exp.model.bundle.mark_space
    if mark_space.is_zero:
        raise ConfigError("model", "isometry study needs a model with jump noise")
    rows = []
    ok = True
    for name in names:
        res = noise.ito_isometry_check(
            _ISOMETRY_INTEGRANDS[name], mark_space, exp.solver.T, exp.solver.dt,
            n_paths, exp.master_seed,
        )
        within = abs(res["lhs"] - res["rhs"]) <= 3.0 * res["ci99"]
        ok = ok and within
        rows.append((name, res["lhs"], res["rhs"], res["rel_err"], res["ci99"], within))
    _write_table(out / "isometry.csv", ANCHORS["isometry"],
                 ("integrand", "lhs", "rhs", "rel_err", "ci99", "within_3ci"), rows, fmt)
    _write_sidecar(out / "isometry_meta.json", exp, "isometry", ok, {"n_paths": n_paths})
    return ok, f"{len(rows)} integrands, all within 3x CI99: {ok}"


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "energy": _cmd_energy,
    "residual": _cmd_residual,
    "modulus": _cmd_modulus,
    "uniqueness": _cmd_uniqueness,
    "stability": _cmd_stability,
    "depend": _cmd_depend,
    "converge": _cmd_converge,
    "prange": _cmd_prange,
    "isometry": _cmd_isometry,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyspde",
        description="Galerkin simulation and hypothesis auditing for jump-noise SPDE",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (or LEVYSPDE_WORKERS)")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reserves code 2; usage errors map to 1 here
        return 0 if exc.code in (0, None) else 1
    try:
        exp = load_config(args.config)
        if args.seed is not None:
            exp.master_seed = checked_seed(args.seed, "--seed")
        out = Path(args.out) if args.out else exp.output_dir
        out.mkdir(parents=True, exist_ok=True)
        workers = worker_count(args.workers)
        verdict, summary = _COMMANDS[args.command](exp, out, args.format, workers)
    except ConfigError as exc:
        print(f"levyspde {args.command}: error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if verdict else "FAIL"
    print(f"levyspde {args.command} [{exp.model.id}] {status}: {summary}")
    return 0 if verdict else 2


if __name__ == "__main__":
    sys.exit(main())
