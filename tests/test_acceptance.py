"""Acceptance suite: the exit criteria at their stated tolerances.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline).  Monte Carlo criteria pin their seeds, path counts and tolerances
here; nothing is deferred to later calibration.
"""

import json
import time

import numpy as np
import pytest

from levyspde.cli import main as cli_main
from levyspde.coefficients import (
    HypothesisConstants,
    admissible_p_range,
    audit_coercivity_growth,
    audit_hemicontinuity,
    c1_of,
    c2_of,
    chi_exponent,
)
from levyspde.estimates import (
    discrete_energy_residuals,
    energy_table,
    modulus_of_continuity,
)
from levyspde.models import BUILTIN_IDS, builtin, validate
from levyspde.noise import MarkSpace, ito_isometry_check, sample_noise
from levyspde.solver import PathRecord, SolverConfig, solve_path, solve_paths
from levyspde.wellposedness import (
    continuous_dependence_study,
    galerkin_convergence,
    pathwise_uniqueness_test,
    weighted_stability_mc,
)

from conftest import (
    make_pure_jump,
    make_scalar_linear,
    misdeclared_beta_constants,
    step_discontinuous_bundle,
)

WORKERS = 4


def _report(number: int, name: str, ok: bool, detail: str):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_ito_isometry():
    marks = MarkSpace(marks=np.array([1.0, -2.0]), weights=np.array([0.7, 0.5]))
    T, dt, n_paths = 1.0, 0.01, 10_000
    lam = marks.total_intensity
    m2 = marks.moment(2.0)
    cases = {
        "constant": (lambda t, z: np.array([1.0]), lam * T),
        "time_linear": (lambda t, z: np.array([t]), lam * T**3 / 3.0),
        "mark_weighted": (lambda t, z: np.array([z]), m2 * T),
    }
    start = time.time()
    details = []
    ok = True
    for name, (integrand, analytic_rhs) in cases.items():
        res = ito_isometry_check(integrand, marks, T, dt, n_paths, seed=42)
        assert res["rhs"] == pytest.approx(analytic_rhs, rel=1e-4)
        within = abs(res["lhs"] - analytic_rhs) <= 3.0 * res["ci99"]
        ok = ok and within
        details.append(f"{name}: |{res['lhs']:.4f}-{analytic_rhs:.4f}|<=3x{res['ci99']:.4f}")
    elapsed = time.time() - start
    ok = ok and elapsed <= 30.0
    _report(1, "second-moment identity, 3 integrands", ok,
            "; ".join(details) + f"; {elapsed:.1f}s (budget 30s)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_hypothesis_audits():
    start = time.time()
    failures = []
    for model_id in BUILTIN_IDS:
        report = validate(builtin(model_id), samples=1000, seed=0)
        bad = [e.name for e in report.entries if not e.passed]
        if bad:
            failures.append(f"{model_id}: {bad}")

    heat = builtin("heat")
    planted = audit_hemicontinuity(step_discontinuous_bundle(heat), heat.triple, 1000, seed=0)
    if planted.passed:
        failures.append("planted step drift not detected")
    entries = audit_coercivity_growth(
        heat.bundle, misdeclared_beta_constants(heat), heat.triple, "I", 1000, seed=0
    )
    if next(e for e in entries if e.name == "H3").passed:
        failures.append("misdeclared beta not detected")

    elapsed = time.time() - start
    ok = not failures and elapsed <= 60.0
    _report(2, "zoo audits pass, planted failures detected", ok,
            (f"failures: {failures}; " if failures else "5 models clean, 2 plants caught; ")
            + f"{elapsed:.1f}s (budget 60s)")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_constants_arithmetic():
    checks = {
        "C1(2.5)": (c1_of(2.5), 1.0),
        "C1(4)": (c1_of(4.0), 2.0),
        "C2(3)": (c2_of(3.0), 1.0),
        "C2(5)": (c2_of(5.0), 2.0),
        "chi(beta=2, flat)": (chi_exponent(HypothesisConstants(beta=2.0, L_A=1.0)), 1.0),
    }
    ok = all(got == want for got, want in checks.values())
    degenerate = admissible_p_range(HypothesisConstants(beta=2.0, L_A=1.0))
    ok = ok and degenerate.unbounded and degenerate.p_max == float("inf")
    _report(3, "moment-splitting constants exact", ok,
            ", ".join(f"{k}={got:g}" for k, (got, want) in checks.items())
            + f", vanishing noise growth flagged unbounded={degenerate.unbounded}")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_energy_uniformity_in_level():
    spec = builtin("heat")
    n_paths, dt, T = 2000, 1e-3, 1.0
    levels = [4, 8, 16, 32]
    start = time.time()
    ratios = {2.0: [], 4.0: []}
    cis = {2.0: [], 4.0: []}
    x0_h = float(np.linalg.norm(spec.default_x0))
    configs = [SolverConfig(dt=dt, T=T, level=m) for m in levels]
    for stats in energy_table(spec.bundle, spec.triple, spec.default_x0, [2.0, 4.0],
                              configs, n_paths, seed=0, beta=2.0, workers=WORKERS):
        for st in stats:
            ratios[st.p].append(st.ratio)
            cis[st.p].append(
                (st.ci99["sup_h_p"] + st.ci99["int_v_beta_p2"]) / (1.0 + x0_h**st.p)
            )
    elapsed = time.time() - start
    ok = elapsed <= 300.0
    details = []
    for p in (2.0, 4.0):
        r = np.asarray(ratios[p])
        c = np.asarray(cis[p])
        hi = (r - c).max()
        lo = (r + c).min()
        spread = hi / lo if lo > 0 else np.inf
        ok = ok and np.all(np.isfinite(r)) and spread <= 2.0
        details.append(f"p={p:g}: ratios {[f'{v:.3f}' for v in r]}, CI-adjusted spread {spread:.3f}")
    _report(4, "energy ratio uniform over levels {4,8,16,32}", ok,
            "; ".join(details) + f"; {elapsed:.0f}s (budget 300s)")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_discrete_energy_residual():
    # dyadic refinement on the scalar linear Wiener model
    triple, bundle, _ = make_scalar_linear(mu=2.0, sigma=0.05)
    T, n_paths = 0.5, 400
    dts = [1.0 / 128, 1.0 / 256, 1.0 / 512]
    means = []
    for dt in dts:
        cfg = SolverConfig(dt=dt, T=T, level=1)
        totals = np.empty(n_paths)
        for i in range(n_paths):
            real = sample_noise(1, T, dt, MarkSpace.zero(), seed=7000 + i)
            rec = solve_paths(bundle, triple, np.array([1.0]), cfg, [7000 + i], noise=[real])[0]
            totals[i] = discrete_energy_residuals([rec], bundle, [real], cfg)[0].total
        means.append(abs(totals.mean()))
    slope = float(np.polyfit(np.log2(dts), np.log2(means), 1)[0])

    # pure-jump algebraic residuals are exactly zero
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([2.0]))
    jtriple, jbundle, _ = make_pure_jump(np.array([0.5, -0.25]), marks=marks)
    cfg = SolverConfig(dt=0.05, T=2.0, level=2)
    real = sample_noise(2, 2.0, 0.05, marks, seed=5)
    rec = solve_paths(jbundle, jtriple, np.array([1.0, 0.0]), cfg, [5], noise=[real])[0]
    series = discrete_energy_residuals([rec], jbundle, [real], cfg)[0]
    jump_exact = series.per_jump.size > 0 and np.all(series.per_jump == 0.0)

    ok = 0.7 <= slope <= 1.3 and jump_exact
    _report(5, "squared-norm balance replay", ok,
            f"refinement slope {slope:.3f} in [0.7,1.3]; "
            f"{series.per_jump.size} jump residuals all exactly 0: {jump_exact}")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_pathwise_uniqueness_all_models():
    sups = {}
    for model_id in BUILTIN_IDS:
        spec = builtin(model_id)
        cfg = SolverConfig(dt=2e-3, T=0.1, level=6)
        sups[model_id] = pathwise_uniqueness_test(
            spec.bundle, spec.triple, spec.default_x0, cfg,
            n_paths=4, seed=0,
        )
    ok = all(v == 0.0 for v in sups.values())
    _report(6, "replay determinism per builtin model", ok,
            ", ".join(f"{k}={v:.1e}" for k, v in sups.items()))


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_weighted_stability():
    heat = builtin("heat")
    cfg = SolverConfig(dt=1e-3, T=0.25, level=8)
    x0 = heat.default_x0
    x0_b = x0.copy()
    x0_b[0] += 0.3
    linear = weighted_stability_mc(
        heat.bundle, heat.triple, heat.constants, x0, x0_b, cfg,
        n_paths=200, seed=0, workers=WORKERS,
    )

    ac = builtin("allen_cahn")
    x0a = ac.default_x0
    x0b = x0a.copy()
    x0b[0] += 0.3
    cubic = weighted_stability_mc(
        ac.bundle, ac.triple, ac.constants, x0a, x0b, cfg,
        n_paths=1000, seed=0, workers=WORKERS,
    )
    ok = linear.passed and cubic.passed
    _report(7, "two-point stability under the exponential weight", ok,
            f"linear worst margin {linear.worst_margin:.3e} at t={linear.worst_t:g}; "
            f"cubic worst margin {cubic.worst_margin:.3e} at t={cubic.worst_t:g} "
            f"(n=1000, dt=1e-3)")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_continuous_dependence():
    heat = builtin("heat")
    cfg = SolverConfig(dt=2e-3, T=0.5, level=4)
    slopes = {}
    for p in (2.0, 4.0):
        table = continuous_dependence_study(
            heat.bundle, heat.triple, heat.default_x0, [1e-3, 1e-2, 1e-1], p, cfg,
            n_paths=100, seed=0, workers=WORKERS,
        )
        slopes[p] = table.log_slope()
    slopes_ok = all(abs(slopes[p] - p) <= 0.2 for p in slopes)

    ac = builtin("allen_cahn")
    cfg_ac = SolverConfig(dt=1e-3, T=0.25, level=8)
    table = continuous_dependence_study(
        ac.bundle, ac.triple, ac.default_x0, [1e-1, 1e-2, 1e-3], 2.0, cfg_ac,
        n_paths=100, seed=0, workers=WORKERS,
    )
    order = np.argsort(table.deltas)
    strictly_decreasing = bool(np.all(np.diff(table.values[order]) > 0.0))
    ok = slopes_ok and strictly_decreasing
    _report(8, "dependence on the data", ok,
            f"linear slopes p=2: {slopes[2.0]:.3f}, p=4: {slopes[4.0]:.3f} (target p±0.2); "
            f"cubic table strictly decreasing toward small Δ: {strictly_decreasing}")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_galerkin_convergence():
    levels = [4, 8, 16, 32]
    details = []
    ok = True
    for model_id, n_paths in (("heat", 96), ("allen_cahn", 48)):
        spec = builtin(model_id)
        cfg = SolverConfig(dt=2e-3, T=0.25, level=max(levels))
        table = galerkin_convergence(
            spec.bundle, spec.triple, spec.default_x0, levels, cfg, n_paths=n_paths, seed=0,
            beta=spec.constants.beta, workers=WORKERS,
        )
        d, c = table.distances, table.ci99
        monotone = all(d[i + 1] <= d[i] + c[i] + c[i + 1] for i in range(d.size - 1))
        ok = ok and monotone and d[-1] == 0.0
        details.append(f"{model_id}: {['%.2e' % v for v in d]}")

    # invariant-subspace fixture: exact zero at every level >= 2
    heat = builtin("heat")
    x0 = np.zeros(heat.triple.dimension_cap)
    x0[0], x0[1] = 1.0, -0.5
    cfg = SolverConfig(dt=2e-3, T=0.25, level=8)
    fixture = galerkin_convergence(
        heat.bundle, heat.triple, x0, [2, 4, 8], cfg,
        n_paths=8, seed=0,
    )
    exact_zero = bool(np.all(fixture.distances == 0.0))
    ok = ok and exact_zero
    _report(9, "level convergence against the finest level", ok,
            "; ".join(details) + f"; invariant-subspace distances all zero: {exact_zero}")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_modulus_diagnostic():
    # constant paths
    dt, T = 1e-2, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    const_states = np.tile([1.0, 2.0], (times.size, 1))

    def record(states):
        states = np.asarray(states, dtype=float)
        return PathRecord(
            times=times.copy(),
            states=states,
            is_jump_post=np.zeros(times.size, dtype=bool),
            is_grid=np.ones(times.size, dtype=bool),
            norm_h=np.sqrt(np.einsum("ij,ij->i", states, states)),
            norm_v=np.sqrt(np.einsum("ij,ij->i", states, states)),
            level=2, dt=dt, T=T,
        )

    const_table = modulus_of_continuity([record(const_states)], [4 * dt, 8 * dt], 2.0)
    const_ok = bool(np.all(const_table.values == 0.0))

    lip_states = np.zeros((times.size, 2))
    lip_states[:, 0] = times
    deltas = [5 * dt, 10 * dt, 20 * dt]
    lip_table = modulus_of_continuity([record(lip_states)], deltas, 2.0)
    lip_ok = all(
        abs(v - d**2 * (T - d)) <= 1e-12
        for d, v in zip(lip_table.deltas, lip_table.values)
    )

    heat = builtin("heat")
    cfg = SolverConfig(dt=1e-3, T=1.0, level=2)
    paths = [
        solve_path(heat.bundle, heat.triple, heat.default_x0, cfg, seed=300 + i)
        for i in range(80)
    ]
    wiener_table = modulus_of_continuity(
        paths, [4e-3, 8e-3, 16e-3, 32e-3, 64e-3], 2.0
    )
    slope = wiener_table.log_slope()
    slope_ok = 0.35 <= slope <= 0.65

    ok = const_ok and lip_ok and slope_ok
    _report(10, "increment-table diagnostic", ok,
            f"constant table all zero: {const_ok}; Lipschitz matches δ²(T−δ) to 1e-12: "
            f"{lip_ok}; driven-path rooted slope {slope:.3f} in [0.35,0.65]")


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_artifact_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": "heat",
        "solver": {"dt": 5e-3, "T": 0.25, "level": 4},
        "study": {"n_paths": 64, "p_list": [2.0], "m_list": [2, 4]},
        "master_seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    bodies = []
    for workers in ("1", "1", "4"):
        code = cli_main(["energy", "--config", str(path), "--workers", workers])
        assert code == 0
        bodies.append((tmp_path / "out" / "energy.csv").read_bytes())
    rerun_identical = bodies[0] == bodies[1]
    workers_identical = bodies[0] == bodies[2]
    ok = rerun_identical and workers_identical
    _report(11, "byte-identical artifacts", ok,
            f"rerun identical: {rerun_identical}, workers {{1,4}} identical: {workers_identical}")
