"""Experiment runner: every study as a subcommand with reproducible seeds.

Exit codes: 0 study passed, 2 study failed its verdict, 1 usage or config
error.  Artifact CSV bodies are byte-stable across reruns and worker
counts; wall-clock metadata lives only in the JSON sidecars.  ``COMMANDS``
declares each subcommand once: its run function, anchor and study fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimates, models, noise, wellposedness
from .coefficients import admissible_p_range
from .config import ConfigError, ExperimentConfig, checked_seed, load_config
from .parallel import worker_count
from .solver import StoppingTimeRule, _truncated_rows, apply_stopping, solve_path
from .spaces import read


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _strict(value):
    """``value`` as strict JSON: every non-finite float None, every array a list."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return _strict(value.tolist())
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


class _Run(NamedTuple):
    """One subcommand call: its config, its resolved study inputs, and its output."""

    command: str
    exp: ExperimentConfig
    study: dict
    ignored: list
    out: Path
    fmt: str
    workers: int

    def write(self, stem: str, columns, rows, verdict: bool | None = None, summary: str = "", **extra):
        """The table ``<stem>.csv`` (``<stem>.json`` under ``--format json``) and,
        given a verdict, its sidecar ``<stem>_meta.json``; returns the verdict
        and the summary line.  This is the one truncation rule: a path study's
        ``truncated_paths`` (a count, or one per dt or Galerkin level) that is
        not zero makes it FAIL, and its line ends "; N of M paths truncated"."""
        exp, anchor = self.exp, COMMANDS[self.command].anchor
        self.out.mkdir(parents=True, exist_ok=True)
        if self.fmt == "json":
            payload = {"verifies": anchor, "columns": list(columns),
                       "rows": [[_fmt(v) for v in row] for row in rows]}
            text = json.dumps(payload, indent=2)
        else:
            lines = [f"# verifies: {anchor}", ",".join(columns)]
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
            text = "\n".join(lines)
        (self.out / f"{stem}.{self.fmt}").write_text(text + "\n")
        if verdict is None:
            return None
        if lost := int(np.sum(extra.get("truncated_paths", 0))):
            verdict = False
            total = self.study["n_paths"] * np.size(extra["truncated_paths"])
            summary += f"; {lost} of {total} paths truncated"
        meta = {
            "study": self.command,
            "verifies": anchor,
            "model": exp.model.id,
            "seed": exp.master_seed,
            "solver": {k: getattr(exp.solver, k) for k in ("dt", "T", "level", "scheme")},
            "inputs": self.study,
            "ignored": self.ignored,
            "pass": bool(verdict),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **extra,
        }
        (self.out / f"{stem}_meta.json").write_text(json.dumps(_strict(meta), indent=2, allow_nan=False) + "\n")
        return bool(verdict), summary


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (verdict, summary_line), through
# ``_Run.write`` when it writes a sidecar
# ---------------------------------------------------------------------------


def _cmd_check(run: _Run):
    exp = run.exp
    report = models.validate(exp.model, samples=run.study["samples"], seed=exp.master_seed)
    rows = [(e.name, e.verdict, e.worst_margin, e.samples_used) for e in report.entries]
    run.write("check", ("hypothesis", "verdict", "worst_margin", "samples"), rows)
    report_json = json.dumps(_strict([e.to_json_dict() for e in report.entries]), indent=2, allow_nan=False)
    (run.out / "check_report.json").write_text(report_json + "\n")
    broken = [e for e in report.entries if "coefficient" in e.witness]
    if broken:
        return False, "; ".join(
            f"{e.name}: {e.witness['coefficient']} evaluated to a non-finite value" for e in broken)
    worst = report.worst()
    summary = f"{len(report.entries)} hypotheses audited, worst margin {worst.worst_margin:.3e} ({worst.name})"
    return report.passed(), summary


def _cmd_simulate(run: _Run):
    exp, stopping_n = run.exp, run.study["stopping_N"]
    record = solve_path(exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver,
                        seed=exp.master_seed)
    tau = None
    if stopping_n is not None:
        record, tau = apply_stopping(record, StoppingTimeRule(stopping_n), beta=exp.model.constants.beta)
    cols = ["time", "is_jump_post", *(f"coeff_{j + 1}" for j in range(record.level)), "norm_H", "norm_V"]
    rows = [[record.times[k], bool(record.is_jump_post[k]), *record.states[k],
             record.norm_h[k], record.norm_v[k]] for k in range(record.times.size)]
    ends = f", stopped at {tau:g}" if tau is not None and tau < exp.solver.T else ""
    if record.truncated_at is not None:
        ends += f", truncated at {record.truncated_at:g}"
    return run.write("path", cols, rows, record.truncated_at is None,
                     f"{record.times.size} entries, {record.n_jump_entries} jumps{ends}",
                     jump_entries=record.n_jump_entries, stopped_at=tau, truncated_at=record.truncated_at)


def _cmd_energy(run: _Run):
    exp, s = run.exp, run.study
    p_list, m_list, n_paths = s["p_list"], s["m_list"], s["n_paths"]
    # warn-only precondition: the estimate is still computed when the
    # declared hypothesis constants fail their quick audit
    quick = models.validate(exp.model, samples=64, seed=exp.master_seed)
    if not quick.passed():
        bad = [e.name for e in quick.entries if not e.passed]
        print(f"levyspde energy: warning: model {exp.model.id!r} fails its hypothesis audit "
              f"({', '.join(bad)}); estimates may not be bounded", file=sys.stderr)
    rows = []
    ratios = {p: [] for p in p_list}
    truncated = []
    tables = estimates.energy_table(
        exp.model.bundle, exp.model.triple, exp.initial_state(), p_list,
        [replace(exp.solver, level=m) for m in m_list],
        n_paths, exp.master_seed, beta=exp.model.constants.beta, workers=run.workers,
    )
    for stats in tables:
        for st in stats:
            for qty, est, ci in (
                ("sup_H_p", st.sup_h_p, st.ci99["sup_h_p"]),
                ("int_V_beta_p2", st.int_v_beta_p2, st.ci99["int_v_beta_p2"]),
                ("mixed", st.mixed, st.ci99["mixed"]),
                ("ratio", st.ratio, float("nan")),
            ):
                rows.append((qty, st.p, st.m, st.dt, n_paths, est, ci, exp.master_seed))
            ratios[st.p].append(st.ratio)
        truncated.append(stats[0].truncated_paths)
    ok = all(np.isfinite(v) for vals in ratios.values() for v in vals)
    spread = 1.0
    if not ok:
        spread = float("nan")
    elif len(m_list) > 1:
        spread = max(max(v) / min(v) for v in ratios.values() if min(v) > 0)
        ok = spread <= 2.0
    return run.write("energy", ("quantity", "p", "m", "dt", "n_paths", "estimate", "ci99", "seed"), rows, ok,
                     f"levels {m_list}, ratio spread {spread:.3f} (uniformity threshold 2.0)",
                     ratio_spread=spread, truncated_paths=truncated)


def _cmd_residual(run: _Run):
    exp, n_paths = run.exp, run.study["n_paths"]
    dt_levels = sorted(run.study["dt_levels"], reverse=True)
    levels = [replace(exp.solver, dt=dt) for dt in dt_levels]
    # a truncated path's total is NaN: it has no balance to replay
    totals = estimates.residual_totals(
        exp.model.bundle, exp.model.triple, exp.initial_state(), levels,
        n_paths, exp.master_seed, workers=run.workers,
    )
    means = [abs(row.mean()) for row in totals]
    rows = [(cfg.dt, row.mean(), np.abs(row).mean(), n_paths, exp.master_seed)
            for cfg, row in zip(levels, totals)]
    # an exact balance has no log to fit: the slope is NaN and the level is named
    exact = [f"{cfg.dt:g}" for cfg, mean in zip(levels, means) if mean == 0.0]
    slope = float("nan") if exact else float(np.polyfit(np.log2(dt_levels), np.log2(means), 1)[0])
    why = f"; mean total is 0 at dt {', '.join(exact)}" if exact else ""
    return run.write("residual", ("dt", "mean_total", "mean_abs_total", "n_paths", "seed"), rows,
                     0.7 <= slope <= 1.3,
                     f"summed-residual refinement slope {slope:.3f} (target [0.7, 1.3]){why}",
                     slope=slope, dt_levels=[cfg.dt for cfg in levels],
                     truncated_paths=[_truncated_rows(row) for row in totals])


def _cmd_modulus(run: _Run):
    exp, s = run.exp, run.study
    result = estimates.modulus_study(
        exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver, s["delta_list"],
        s["beta_exp"], s["n_paths"], exp.master_seed, workers=run.workers)
    rows = list(zip(result.deltas, result.values, result.ci99, result.rooted_values()))
    return run.write("modulus", ("delta", "value", "ci99", "rooted_value"), rows,
                     result.consistent_with_tightness,
                     f"{result.label}; rooted log-log slope {result.log_slope():.3f}",
                     slope=result.log_slope(), label=result.label, truncated_paths=result.truncated_paths)


def _cmd_uniqueness(run: _Run):
    exp, n_paths, stress = run.exp, run.study["n_paths"], run.study["stress"]
    sups = wellposedness.uniqueness_sups(
        exp.model.bundle, exp.model.triple, exp.initial_state(), exp.solver,
        n_paths, exp.master_seed, stress=stress, workers=run.workers,
    )
    sup = float(np.max(sups))
    with np.errstate(over="ignore"):  # an overflowing x0 is the truncation that FAILs the run
        scale = float(np.linalg.norm(exp.initial_state()))
    ok = sup == 0.0 if not stress else sup <= 1e-9 * max(scale, 1.0)
    return run.write("uniqueness", ("mode", "n_paths", "max_sup_difference", "seed"),
                     [("stress" if stress else "replay", n_paths, sup, exp.master_seed)], ok,
                     f"max sup-difference {sup:.3e} over {n_paths} paths",
                     max_sup_difference=sup, truncated_paths=_truncated_rows(sups))


def _cmd_stability(run: _Run):
    exp, n_paths = run.exp, run.study["n_paths"]
    result = wellposedness.weighted_stability_mc(
        exp.model.bundle, exp.model.triple, exp.model.constants, exp.initial_state(),
        run.study["x0_b"], exp.solver, n_paths, exp.master_seed, workers=run.workers)
    rows = list(zip(result.times, result.lhs_curve, result.ci99))
    summary = (f"lhs <= {result.bound:.6g}*(1+{result.eps_scheme:g}) at every grid time; "
               f"worst margin {result.worst_margin:.3e} at t={result.worst_t:g}")
    return run.write("stability", ("time", "weighted_mean_sq_difference", "ci99"), rows, result.passed,
                     summary, bound=result.bound, eps_scheme=result.eps_scheme, worst_t=result.worst_t,
                     worst_margin=result.worst_margin, truncated_paths=result.truncated_paths)


def _cmd_depend(run: _Run):
    exp, p, n_paths = run.exp, run.study["p"], run.study["n_paths"]
    table = wellposedness.continuous_dependence_study(
        exp.model.bundle, exp.model.triple, exp.initial_state(), run.study["perturbations"], p,
        exp.solver, n_paths, exp.master_seed, workers=run.workers)
    rows = list(zip(table.deltas, table.values, table.ci99))
    order = np.argsort(table.deltas)
    slope = table.log_slope()
    ok = bool(np.all(np.diff(table.values[order]) >= 0.0) and np.isfinite(slope))
    return run.write("depend", ("delta", "sup_difference_p_moment", "ci99"), rows, ok,
                     f"table log-log slope {slope:.3f} at p={p:g}",
                     log_slope=slope, p=p, truncated_paths=table.truncated_paths)


def _cmd_converge(run: _Run):
    exp, n_paths = run.exp, run.study["n_paths"]
    table = wellposedness.galerkin_convergence(
        exp.model.bundle, exp.model.triple, exp.initial_state(), run.study["m_list"], exp.solver,
        n_paths, exp.master_seed, beta=exp.model.constants.beta, workers=run.workers)
    rows = list(zip(table.levels, table.distances, table.ci99))
    d, c = table.distances, table.ci99
    ok = all(d[i + 1] <= d[i] + c[i] + c[i + 1] for i in range(d.size - 1))
    return run.write("converge", ("m", "distance_to_reference", "ci99"), rows, ok,
                     f"distances {['%.3e' % v for v in d]} vs reference m={table.reference_level}",
                     reference_level=table.reference_level, truncated_paths=table.truncated_paths)


def _cmd_prange(run: _Run):
    # the moment side condition depends on an imported constant the source
    # material never pins; the study may replace the default guess by base^p
    base = run.study["c_tilde_base"]
    result = admissible_p_range(run.exp.model.constants,
                                c_tilde=None if base is None else lambda p: base**p)
    rows = [(r["p"], r["c1"], r["c2"], r["growth_ok"], r["admissible_ok"], r["moment_ok"])
            for r in result.rows]
    p_max = "inf" if result.unbounded else f"{result.p_max:g}"
    # a bounded p_max is itself admissible; an unbounded range has no end point
    interval = f"[2, {p_max})" if result.unbounded else f"[2, {p_max}]"
    summary = f"chi={result.chi:g}, admissible p in {interval}" + (
        " (unbounded: vanishing noise growth)" if result.unbounded else "")
    return run.write("prange", ("p", "C1", "C2", "growth_ok", "admissible_ok", "moment_ok"), rows,
                     not result.empty, summary, chi=result.chi, p_max=p_max, unbounded=result.unbounded)


_ISOMETRY_INTEGRANDS = {
    "constant": lambda t, z: np.array([1.0]),
    "time_linear": lambda t, z: np.array([t]),
    "mark_weighted": lambda t, z: np.array([z]),
}


def _cmd_isometry(run: _Run):
    exp, n_paths = run.exp, run.study["n_paths"]
    mark_space = exp.model.bundle.mark_space
    if mark_space.is_zero:
        raise ConfigError("model", "isometry study needs a model with jump noise")
    rows = []
    for name in run.study["integrands"]:
        res = noise.ito_isometry_check(_ISOMETRY_INTEGRANDS[name], mark_space, exp.solver.T,
                                       exp.solver.dt, n_paths, exp.master_seed)
        within = abs(res["lhs"] - res["rhs"]) <= 3.0 * res["ci99"]
        rows.append((name, res["lhs"], res["rhs"], res["rel_err"], res["ci99"], within))
    ok = all(row[-1] for row in rows)
    return run.write("isometry", ("integrand", "lhs", "rhs", "rel_err", "ci99", "within_3ci"), rows, ok,
                     f"{len(rows)} integrands, all within 3x CI99: {ok}", n_paths=n_paths)


class Field(NamedTuple):
    """A study field: its ``spaces.read`` kind (None: the rule reads the raw JSON), its
    default (a callable reads the config; ``shown`` says how), and a rule that raises
    ValueError on a value or default outside ``limits`` and returns what the study reads."""

    name: str
    kind: object
    default: object
    limits: str
    rule: Callable[[ExperimentConfig, object], object] = lambda exp, value: value
    shown: str = ""


def _above(bound: float, message: str):
    """Range rule: the value exceeds ``bound``."""
    def rule(exp, value):
        if not value > bound:
            raise ValueError(message)
        return value
    return rule


def _distinct(kind: str = "entries", counted=lambda exp, values: values):
    """Range rule: a slope fit or a comparison needs two distinct ``counted`` entries."""
    def rule(exp, values):
        if len(set(entries := counted(exp, values))) < 2:
            raise ValueError(f"expected at least two distinct {kind}, got {entries}")
        return values
    return rule


def _paths(default: int, least: int = 1) -> Field:
    """``n_paths``: a verdict that reads a CI99 needs two paths."""
    return Field("n_paths", int, default, f"at least {least}", _above(least - 1, f"n_paths must be >= {least}"))


def _levels(exp, values) -> list[int]:
    """Distinct whole Galerkin levels in [1, dimension_cap]."""
    cap = exp.model.triple.dimension_cap
    if any(not 1 <= m <= cap or m != int(m) for m in values) or len(set(values)) < len(values):
        raise ValueError(f"expected distinct whole levels in [1, {cap}], got {values}")
    return [int(m) for m in values]


def _moment_orders(exp, p_list):
    """Moment orders from 2 to, in part II, the admissible range's ``p_max`` (if bounded)."""
    result = admissible_p_range(exp.model.constants) if exp.model.regime == "part2" else None
    for p in p_list:
        if p < 2.0:
            raise ValueError(f"moment orders start at 2, got p={p:g}")
        if result is not None and (result.empty or p > result.p_max):
            raise ValueError(f"p={p:g} lies outside the admissible range "
                             f"(p_max={result.p_max:g}, chi={result.chi:g})")
    return p_list


def _integrand_names(exp, names):
    if not isinstance(names, list) or not names or not all(
            isinstance(n, str) and n in _ISOMETRY_INTEGRANDS for n in names):
        raise ValueError(f"expected a nonempty list of {list(_ISOMETRY_INTEGRANDS)}")
    return names


class Subcommand(NamedTuple):
    """A subcommand: its run function, its artifacts' anchor, and its study fields in read order."""

    run: Callable[[_Run], tuple[bool, str]]
    anchor: str
    fields: tuple[Field, ...]

    def resolve(self, exp: ExperimentConfig) -> tuple[dict, list[str]]:
        """The study inputs, defaults filled in, and the keys only other subcommands read."""
        names = [f.name for f in self.fields]
        ignored = [key for key in exp.study if key not in names]
        for key in ignored:
            if all(key != f.name for c in COMMANDS.values() for f in c.fields):
                raise ConfigError(f"study.{key}", f"no subcommand reads it; this one reads {', '.join(names)}")
        inputs = {}
        for f in self.fields:
            value = read(exp.study, f.name, "study", f.kind, None) if f.kind else exp.study.get(f.name)
            if value is None:
                value = f.default(exp) if callable(f.default) else f.default
            try:
                inputs[f.name] = None if value is None else f.rule(exp, value)
            except ValueError as exc:
                raise ConfigError(f"study.{f.name}", str(exc)) from None
        return inputs, ignored

    def epilog(self) -> str:
        return "study fields:\n" + "\n".join(
            f"  {f.name} (default {f.shown or json.dumps(f.default)}): {f.limits}" for f in self.fields)


COMMANDS = {
    "check": Subcommand(_cmd_check, "Hypotheses (H.1)-(H.6) / (H.2)*-(H.6)*", (
        Field("samples", int, 1000, "at least 1", _above(0, "the audits need at least one sample")),)),
    "simulate": Subcommand(_cmd_simulate, "Eq. (3.17) Galerkin system", (
        Field("stopping_N", float, None, "positive; null: no stopping",
              lambda exp, n: StoppingTimeRule(n).N),)),
    "energy": Subcommand(_cmd_energy, "Lemma 3.1 / Eq. (3.18)", (
        Field("p_list", list, [2.0], "each at least 2; in part II at most p_max", _moment_orders),
        Field("m_list", list, lambda exp: [exp.solver.level], "distinct whole levels in [1, dimension_cap]",
              _levels, "[solver.level]"),
        _paths(200, least=2))),
    "residual": Subcommand(_cmd_residual, "Eq. (3.19) squared-norm balance", (
        Field("dt_levels", list, [4e-3, 2e-3, 1e-3], "two distinct steps, each dividing T",
              lambda exp, dts: [replace(exp.solver, dt=dt).dt for dt in _distinct()(exp, dts)]),
        _paths(256))),
    "modulus": Subcommand(_cmd_modulus, "Eq. (3.37) / Aldous condition (3.035)", (
        # two shifts a rounding apart are one grid shift
        Field("delta_list", list, lambda exp: [k * exp.solver.dt for k in (4, 8, 16, 32)],
              "multiples of dt up to T, at two distinct grid shifts",
              _distinct("shifts in grid steps", lambda exp, deltas: [
                  estimates.delta_steps(d, exp.solver.dt, exp.solver.n_steps) for d in deltas]),
              "[4, 8, 16, 32] x dt"),
        _paths(200, least=2),
        Field("beta_exp", float, lambda exp: exp.model.constants.beta, "above 1",
              _above(1.0, "beta_exp must exceed 1"), "the model's beta"))),
    "uniqueness": Subcommand(_cmd_uniqueness, "Theorem 3.2 pathwise uniqueness", (
        _paths(16),
        Field("stress", bool, False, "true reorders the second solve's same-step marks"))),
    "stability": Subcommand(_cmd_stability, "Eq. (3.77) weighted stability", (
        _paths(200),
        Field("x0_b", np.ndarray, lambda exp: np.concatenate([exp.initial_state()[:1] + 0.1,
                                                              exp.initial_state()[1:]]),
              "the second initial state, at most dimension_cap entries",
              lambda exp, x0_b: exp.model.triple.fits(x0_b), "x0 + 0.1 e_1"))),
    "depend": Subcommand(_cmd_depend, "Theorem 2.2 / Eq. (3.14)", (
        # the log-log slope is fitted through the positive entries only
        Field("perturbations", list, [1e-1, 1e-2, 1e-3], "two distinct positive entries",
              _distinct("positive entries", lambda exp, deltas: [d for d in deltas if d > 0.0])),
        Field("p", float, 2.0, "at least 2; in part II at most p_max",
              lambda exp, p: _moment_orders(exp, [p])[0]),
        _paths(200))),
    "converge": Subcommand(_cmd_converge, "Eq. (3.54) Galerkin convergence", (
        Field("m_list", list, [4, 8, 16, 32], "two or more distinct whole levels in [1, dimension_cap]",
              lambda exp, ms: _distinct()(exp, _levels(exp, ms))),
        _paths(100, least=2))),
    "prange": Subcommand(_cmd_prange, "Eqs. (4.7)-(4.9), (410), (412)", (
        Field("c_tilde_base", float, None, "positive; null: the built-in guess",
              _above(0.0, "c_tilde_base must be positive")),)),
    "isometry": Subcommand(_cmd_isometry, "Eq. (21) isometry", (
        _paths(10000, least=100),
        Field("integrands", None, list(_ISOMETRY_INTEGRANDS), "a nonempty list of these names",
              _integrand_names))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyspde",
        description="Galerkin simulation and hypothesis auditing for jump-noise SPDE",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} study", epilog=spec.epilog(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
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
        spec = COMMANDS[args.command]
        verdict, summary = spec.run(_Run(args.command, exp, *spec.resolve(exp), out, args.format, workers))
    except ConfigError as exc:
        print(f"levyspde {args.command}: error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if verdict else "FAIL"
    print(f"levyspde {args.command} [{exp.model.id}] {status}: {summary}")
    return 0 if verdict else 2


if __name__ == "__main__":
    sys.exit(main())
