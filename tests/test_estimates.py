"""Energy statistics, the squared-norm balance replay, and the modulus table."""

import dataclasses

import numpy as np
import pytest

from levyspde import estimates
from levyspde.estimates import (
    discrete_energy_residual,
    energy_estimate_mc,
    energy_table,
    modulus_of_continuity,
    path_energy_functionals,
)
from levyspde.noise import MarkSpace, sample_noise
from levyspde.solver import PathRecord, SolverConfig, solve_path

from conftest import make_pure_jump, make_scalar_linear


def _record_from_states(times, states, dt, T, weights=None):
    states = np.asarray(states, dtype=float)
    w = np.ones(states.shape[1]) if weights is None else np.asarray(weights)
    return PathRecord(
        times=np.asarray(times, dtype=float),
        states=states,
        is_jump_post=np.zeros(len(times), dtype=bool),
        norm_h=np.sqrt(np.einsum("ij,ij->i", states, states)),
        norm_v=np.sqrt(np.einsum("ij,ij->i", states * w, states)),
        level=states.shape[1],
        dt=dt,
        T=T,
    )


def _zero_bundle(level):
    from levyspde.coefficients import CoefficientBundle

    return CoefficientBundle(
        drift=lambda t, u: np.zeros(u.shape),
        diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
        jump=lambda t, u, z: np.zeros(u.shape),
        mark_space=MarkSpace.zero(),
    )


def test_zero_model_energy_is_exact(quiet_heat_spec):
    # constant path: sup = ‖P_m x0‖^p, integral term = T^{p/2} ‖P_m x0‖_V^{beta p/2}
    triple = quiet_heat_spec.triple
    bundle = _zero_bundle(3)
    x0 = quiet_heat_spec.default_x0
    cfg = SolverConfig(dt=0.1, T=2.0, level=3)
    stats = energy_estimate_mc(bundle, triple, x0, 2.0, cfg, n_paths=4, seed=0)
    pm = triple.project(x0, 3).coeffs
    h = float(np.linalg.norm(pm))
    v = triple.norm_v(pm)
    assert stats.sup_h_p == pytest.approx(h**2, rel=1e-12)
    assert stats.int_v_beta_p2 == pytest.approx(2.0 * v**2, rel=1e-12)
    assert stats.ci99["sup_h_p"] == 0.0


def test_deterministic_heat_sup_is_initial_norm(quiet_heat_spec):
    spec = quiet_heat_spec
    cfg = SolverConfig(dt=1e-3, T=0.5, level=4)
    stats = energy_estimate_mc(spec.bundle, spec.triple, spec.default_x0, 2.0, cfg,
                               n_paths=2, seed=0)
    pm = spec.triple.project(spec.default_x0, 4).coeffs
    assert stats.sup_h_p == pytest.approx(float(np.dot(pm, pm)), rel=1e-12)


def test_energy_requires_two_paths(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=2)
    with pytest.raises(ValueError):
        energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                           2.0, cfg, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                           1.5, cfg, n_paths=4, seed=0)


def test_ratio_bounded_across_levels(heat_spec):
    # small-scale uniformity check; the full-size study is in acceptance
    ratios = []
    for m in (4, 8):
        cfg = SolverConfig(dt=5e-3, T=0.5, level=m)
        stats = energy_estimate_mc(heat_spec.bundle, heat_spec.triple,
                                   heat_spec.default_x0, 2.0, cfg, n_paths=200, seed=0)
        ratios.append(stats.ratio)
    assert max(ratios) / min(ratios) <= 2.0


def test_estimates_consistent_under_doubling(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    a = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                           2.0, cfg, n_paths=150, seed=0)
    b = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                           2.0, cfg, n_paths=300, seed=90001)
    assert abs(a.sup_h_p - b.sup_h_p) <= a.ci99["sup_h_p"] + b.ci99["sup_h_p"]


def test_ci_scales_inverse_sqrt_n(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    small = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                               2.0, cfg, n_paths=100, seed=1)
    large = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                               2.0, cfg, n_paths=400, seed=1)
    ratio = small.ci99["sup_h_p"] / large.ci99["sup_h_p"]
    assert 1.4 <= ratio <= 2.9  # expected factor 2 up to sampling noise


def test_sup_dominates_endpoint_per_path(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=1.0, level=4)
    for seed in range(5):
        rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg,
                         heat_spec.bundle.mark_space, seed=seed)
        sup_p, _, _ = path_energy_functionals(rec, 2.0, 2.0)
        assert sup_p >= float(np.dot(rec.final_state(), rec.final_state())) - 1e-15


def test_medians_reported_for_heavy_tails(heat_spec):
    cfg = SolverConfig(dt=1e-2, T=0.5, level=3)
    stats = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                               4.0, cfg, n_paths=50, seed=0)
    assert stats.medians is not None and stats.medians["sup_h_p"] > 0.0
    stats2 = energy_estimate_mc(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                                2.0, cfg, n_paths=50, seed=0)
    assert stats2.medians is None


def test_energy_table_independent_of_workers_and_batches(heat_spec, monkeypatch):
    cfg = SolverConfig(dt=0.01, T=0.5, level=4)

    def run(workers):
        stats = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                             [2.0, 4.0], cfg, n_paths=30, seed=4, workers=workers)
        return [dataclasses.asdict(st) for st in stats]

    reference = run(1)
    assert run(2) == reference
    assert run(4) == reference
    monkeypatch.setattr(estimates, "ENERGY_BATCH", 1)
    assert run(1) == reference
    assert run(2) == reference


# ---------------------------------------------------------------------------
# squared-norm balance
# ---------------------------------------------------------------------------


def test_residual_identically_zero_for_zero_model():
    bundle = _zero_bundle(2)
    from levyspde.spaces import GelfandTriple

    triple = GelfandTriple(dimension_cap=2, v_weights=np.ones(2))
    cfg = SolverConfig(dt=0.1, T=1.0, level=2)
    real = sample_noise(2, 1.0, 0.1, MarkSpace.zero(), seed=0)
    rec = solve_path(bundle, triple, np.array([1.0, -1.0]), cfg, MarkSpace.zero(),
                     seed=0, realization=real)
    series = discrete_energy_residual(rec, bundle, real, MarkSpace.zero(), cfg)
    assert np.all(series.per_step == 0.0)
    assert series.total == 0.0


def test_residual_pure_jump_identity_exact():
    g = np.array([0.4, -0.2])
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([3.0]))
    triple, bundle, _ = make_pure_jump(g, marks=marks)
    cfg = SolverConfig(dt=0.05, T=2.0, level=2)
    real = sample_noise(2, 2.0, 0.05, marks, seed=8)
    assert len(real.jumps) > 0
    rec = solve_path(bundle, triple, np.array([1.0, 1.0]), cfg, marks, seed=8, realization=real)
    series = discrete_energy_residual(rec, bundle, real, marks, cfg)
    assert series.per_jump.size == len(real.jumps)
    assert np.all(series.per_jump == 0.0)
    # the compensator cross terms leave an O(dt) per-step trace
    assert np.abs(series.per_step).max() <= 10.0 * cfg.dt


def test_residual_scalar_wiener_dyadic_slope():
    # the ensemble-mean summed residual is deterministic O(dt); with a low
    # noise level it dominates the Monte Carlo error and halves with dt
    triple, bundle, _ = make_scalar_linear(mu=2.0, sigma=0.05)
    T, n_paths = 0.5, 400
    means = []
    dts = [1.0 / 128, 1.0 / 256, 1.0 / 512]
    for dt in dts:
        cfg = SolverConfig(dt=dt, T=T, level=1)
        totals = np.empty(n_paths)
        for i in range(n_paths):
            real = sample_noise(1, T, dt, MarkSpace.zero(), seed=1000 + i)
            rec = solve_path(bundle, triple, np.array([1.0]), cfg, MarkSpace.zero(),
                             seed=1000 + i, realization=real)
            series = discrete_energy_residual(rec, bundle, real, MarkSpace.zero(), cfg)
            totals[i] = series.total
        means.append(abs(totals.mean()))
    slope = np.polyfit(np.log2(dts), np.log2(means), 1)[0]
    assert 0.7 <= slope <= 1.3, f"residual slope {slope}"


def test_residual_rejects_non_finite_record_state():
    # checked once on entry, so a bad row anywhere is caught, the last too
    times = np.arange(11) * 0.1
    states = np.ones((11, 2))
    states[-1, 1] = np.nan
    rec = _record_from_states(times, states, 0.1, 1.0)
    real = sample_noise(2, 1.0, 0.1, MarkSpace.zero(), seed=0)
    with pytest.raises(ValueError, match="finite"):
        discrete_energy_residual(rec, _zero_bundle(2), real, MarkSpace.zero())


def test_residual_rejects_mismatched_realization(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=3)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg,
                     heat_spec.bundle.mark_space, seed=1)
    other = sample_noise(3, 1.0, 0.1, heat_spec.bundle.mark_space, seed=2)
    with pytest.raises(ValueError):
        discrete_energy_residual(rec, heat_spec.bundle, other, heat_spec.bundle.mark_space, cfg)


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


def test_modulus_constant_paths_vanish():
    dt, T = 0.05, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    states = np.tile([1.5, -0.5], (times.size, 1))
    paths = [_record_from_states(times, states, dt, T) for _ in range(3)]
    result = modulus_of_continuity(paths, [2 * dt, 4 * dt], 2.0)
    np.testing.assert_array_equal(result.values, 0.0)
    assert result.consistent_with_tightness


def test_modulus_lipschitz_fixture_closed_form():
    # Y(t) = t e1 with beta = 2: value = delta^2 (T - delta), exact
    dt, T = 0.01, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    states = np.zeros((times.size, 2))
    states[:, 0] = times
    paths = [_record_from_states(times, states, dt, T)]
    deltas = [4 * dt, 10 * dt, 25 * dt]
    result = modulus_of_continuity(paths, deltas, 2.0)
    for d, v in zip(result.deltas, result.values):
        assert v == pytest.approx(d**2 * (T - d), abs=1e-12)


def test_modulus_wiener_rooted_slope_matches_brownian_exponent(heat_spec):
    # fine-grid ensemble: the beta-rooted increments follow the square-root
    # modulus, the raw values the beta/2 power
    dt, T = 1e-3, 1.0
    cfg = SolverConfig(dt=dt, T=T, level=2)
    paths = [
        solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg,
                   heat_spec.bundle.mark_space, seed=200 + i)
        for i in range(60)
    ]
    deltas = [4 * dt, 8 * dt, 16 * dt, 32 * dt, 64 * dt]
    result = modulus_of_continuity(paths, deltas, 2.0)
    assert 0.35 <= result.log_slope() <= 0.65
    assert result.consistent_with_tightness


def test_modulus_rejects_off_grid_delta():
    dt, T = 0.1, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    states = np.zeros((times.size, 1))
    paths = [_record_from_states(times, states, dt, T)]
    with pytest.raises(ValueError):
        modulus_of_continuity(paths, [0.15], 2.0)
    with pytest.raises(ValueError):
        modulus_of_continuity(paths, [2.0], 2.0)
