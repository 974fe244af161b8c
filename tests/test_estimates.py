"""Energy statistics, the squared-norm balance replay, and the modulus table."""

import dataclasses

import numpy as np
import pytest

from levyspde import estimates, parallel
from levyspde.coefficients import AUDIT_BATCH_ROWS
from levyspde.estimates import discrete_energy_residuals, energy_table, modulus_of_continuity
from levyspde.models import builtin
from levyspde.noise import JumpEvent, MarkSpace, sample_noise
from levyspde.rng import path_seed
from levyspde.solver import PathRecord, SolverConfig, _newton_rows, solve_path, solve_paths

import serial_replay
from conftest import make_pure_jump, make_scalar_linear, make_time_dependent


def _seeds(seed, n_paths):
    """The path seeds 0 .. n_paths-1 under ``seed``, as a study draws them."""
    return [path_seed(seed, i) for i in range(n_paths)]


def _record_from_states(times, states, dt, T, weights=None):
    states = np.asarray(states, dtype=float)
    w = np.ones(states.shape[1]) if weights is None else np.asarray(weights)
    return PathRecord(
        times=np.asarray(times, dtype=float),
        states=states,
        is_jump_post=np.zeros(len(times), dtype=bool),
        is_grid=np.ones(len(times), dtype=bool),
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
    stats = energy_table(bundle, triple, x0, [2.0], [cfg], n_paths=4, seed=0)[0][0]
    pm = triple.project(x0, 3).coeffs
    h = float(np.linalg.norm(pm))
    v = quiet_heat_spec.bundle.v_norm_of(triple, pm)
    assert stats.sup_h_p == pytest.approx(h**2, rel=1e-12)
    assert stats.int_v_beta_p2 == pytest.approx(2.0 * v**2, rel=1e-12)
    assert stats.ci99["sup_h_p"] == 0.0


def test_deterministic_heat_sup_is_initial_norm(quiet_heat_spec):
    spec = quiet_heat_spec
    cfg = SolverConfig(dt=1e-3, T=0.5, level=4)
    stats = energy_table(spec.bundle, spec.triple, spec.default_x0, [2.0], [cfg],
                         n_paths=2, seed=0)[0][0]
    pm = spec.triple.project(spec.default_x0, 4).coeffs
    assert stats.sup_h_p == pytest.approx(float(np.dot(pm, pm)), rel=1e-12)


def test_energy_requires_two_paths(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=2)
    with pytest.raises(ValueError):
        energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                     [2.0], [cfg], n_paths=1, seed=0)
    with pytest.raises(ValueError):
        energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                     [1.5], [cfg], n_paths=4, seed=0)


def test_ratio_bounded_across_levels(heat_spec):
    # small-scale uniformity check; the full-size study is in acceptance
    configs = [SolverConfig(dt=5e-3, T=0.5, level=m) for m in (4, 8)]
    tables = energy_table(heat_spec.bundle, heat_spec.triple,
                          heat_spec.default_x0, [2.0], configs, n_paths=200, seed=0)
    ratios = [stats.ratio for stats, in tables]
    assert max(ratios) / min(ratios) <= 2.0


def test_estimates_consistent_under_doubling(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    a = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                     [2.0], [cfg], n_paths=150, seed=0)[0][0]
    b = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                     [2.0], [cfg], n_paths=300, seed=90001)[0][0]
    assert abs(a.sup_h_p - b.sup_h_p) <= a.ci99["sup_h_p"] + b.ci99["sup_h_p"]


def test_ci_scales_inverse_sqrt_n(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    small = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                         [2.0], [cfg], n_paths=100, seed=1)[0][0]
    large = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                         [2.0], [cfg], n_paths=400, seed=1)[0][0]
    ratio = small.ci99["sup_h_p"] / large.ci99["sup_h_p"]
    assert 1.4 <= ratio <= 2.9  # expected factor 2 up to sampling noise


def test_sup_dominates_endpoint_per_path(heat_spec):
    cfg = SolverConfig(dt=5e-3, T=1.0, level=4)
    for seed in range(5):
        rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=seed)
        sup_h, _, _ = estimates._energy_parts(rec, [2.0], 2.0)
        assert sup_h**2 >= float(np.dot(rec.states[-1], rec.states[-1])) - 1e-15


def test_energy_table_independent_of_workers_and_batches(heat_spec, monkeypatch):
    # two levels in one call: every batch solves its paths at both, and each
    # level's table has the bits of its own one-level call
    configs = [SolverConfig(dt=0.01, T=0.5, level=m) for m in (4, 8)]

    def run(workers, configs=configs):
        tables = energy_table(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                              [2.0, 4.0], configs, n_paths=30, seed=4, workers=workers)
        assert len(tables) == len(configs)
        return [[dataclasses.asdict(st) for st in stats] for stats in tables]

    reference = run(1)
    assert [st["m"] for stats in reference for st in stats] == [4, 4, 8, 8]
    for workers in (1, 2, 4):
        assert run(workers) == reference
        assert [run(workers, [cfg])[0] for cfg in configs] == reference
    monkeypatch.setattr(parallel, "split_by_rows",
                        lambda seed, n_paths, rows, workers: [[s] for s in _seeds(seed, n_paths)])
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
    rec = solve_paths(bundle, triple, np.array([1.0, -1.0]), cfg, [0], noise=[real])[0]
    series = discrete_energy_residuals([rec], bundle, [real], cfg)
    assert series.shape == (1, 10)
    assert np.all(series == 0.0)


def test_residual_pure_jump_identity_exact():
    g = np.array([0.4, -0.2])
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([3.0]))
    triple, bundle, _ = make_pure_jump(g, marks=marks)
    cfg = SolverConfig(dt=0.05, T=2.0, level=2)
    real = sample_noise(2, 2.0, 0.05, marks, seed=8)
    assert len(real.jumps) > 0
    rec = solve_paths(bundle, triple, np.array([1.0, 1.0]), cfg, [8], noise=[real])[0]
    assert rec.n_jump_entries == len(real.jumps)
    # the replay raises unless every recorded jump reproduces bit-exactly
    # from the bundle; the compensator cross terms leave an O(dt) per-step trace
    series = discrete_energy_residuals([rec], bundle, [real], cfg)[0]
    assert np.abs(series).max() <= 10.0 * cfg.dt


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
            rec = solve_paths(bundle, triple, np.array([1.0]), cfg, [1000 + i], noise=[real])[0]
            totals[i] = discrete_energy_residuals([rec], bundle, [real], cfg)[0].sum()
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
        discrete_energy_residuals([rec], _zero_bundle(2), [real], SolverConfig(dt=0.1, T=1.0, level=2))


def test_residual_rejects_mismatched_realization(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=3)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=1)
    other = sample_noise(3, 1.0, 0.1, heat_spec.bundle.mark_space, seed=2)
    with pytest.raises(ValueError):
        discrete_energy_residuals([rec], heat_spec.bundle, [other], cfg)


def _replay_batch(spec, cfg, n_paths, seed, noise=None):
    """A batch solved on its realizations: (records, realizations)."""
    ms = spec.bundle.mark_space
    seeds = _seeds(seed, n_paths)
    if noise is None:
        noise = [sample_noise(cfg.level, cfg.T, cfg.dt, ms, s) for s in seeds]
    records = solve_paths(spec.bundle, spec.triple, spec.default_x0, cfg, seeds, noise=noise)
    assert all(rec.truncated_at is None for rec in records)
    return records, noise


def _assert_matches_serial(bundle, cfg, records, noise):
    """The batched replay, checked row by row against the serial replay."""
    batched = discrete_energy_residuals(records, bundle, noise, cfg)
    want = np.array([serial_replay.discrete_energy_residual(rec, bundle, real, cfg)
                     for rec, real in zip(records, noise)])
    np.testing.assert_array_equal(batched, want, strict=True)
    assert batched.flags.c_contiguous
    return batched


@pytest.mark.parametrize(
    "model, scheme, n_paths",
    [("heat", "drift_implicit", 8), ("heat", "tamed_explicit", 5), ("allen_cahn", "drift_implicit", 4)],
    ids=["heat-jumps", "heat-tamed", "allen_cahn-newton"],
)
def test_batched_replay_matches_serial_replay(model, scheme, n_paths):
    # one coefficient call per step for the whole batch, and each path keeps
    # the bits of its replay alone; allen_cahn has no closed-form implicit
    # solve, so its replay runs the batched Newton
    spec = builtin(model)
    cfg = SolverConfig(dt=0.01, T=0.3, level=6, scheme=scheme)
    records, noise = _replay_batch(spec, cfg, n_paths, seed=5)
    batched = _assert_matches_serial(spec.bundle, cfg, records, noise)
    assert sum(rec.n_jump_entries for rec in records) > 0
    one = discrete_energy_residuals([records[-1]], spec.bundle, [noise[-1]], cfg)
    np.testing.assert_array_equal(one, batched[-1:])


def _with_jumps(real, times, mark_index=0):
    return dataclasses.replace(real, jumps=tuple(JumpEvent(t, mark_index) for t in times))


def test_batched_replay_paths_with_different_jump_counts_in_one_step(heat_spec):
    # step 3 holds two jumps of path 0, one of path 1 and none of path 2
    cfg = SolverConfig(dt=0.01, T=0.1, level=4)
    ms = heat_spec.bundle.mark_space
    seeds = _seeds(3, 3)
    base = [sample_noise(4, cfg.T, cfg.dt, ms, s) for s in seeds]
    noise = [_with_jumps(base[0], [0.031, 0.036, 0.072]),
             _with_jumps(base[1], [0.034], mark_index=1), _with_jumps(base[2], [])]
    records, noise = _replay_batch(heat_spec, cfg, 3, 3, noise=noise)
    assert [rec.n_jump_entries for rec in records] == [3, 1, 0]
    _assert_matches_serial(heat_spec.bundle, cfg, records, noise)


def test_batched_replay_rejects_a_corrupted_jump_in_a_later_path(heat_spec):
    cfg = SolverConfig(dt=0.01, T=0.3, level=4)
    records, noise = _replay_batch(heat_spec, cfg, 4, seed=5)
    p = next(p for p in range(1, 4) if records[p].n_jump_entries)
    post = int(np.flatnonzero(records[p].is_jump_post)[0])
    states = records[p].states.copy()
    states[post, 0] = np.nextafter(states[post, 0], np.inf)
    records[p] = dataclasses.replace(records[p], states=states)
    with pytest.raises(ValueError, match="does not replay bit-exactly"):
        discrete_energy_residuals(records, heat_spec.bundle, noise, cfg)


def test_batched_replay_rejects_a_wrong_seed_and_mixed_grids(heat_spec):
    ms = heat_spec.bundle.mark_space
    cfg = SolverConfig(dt=0.01, T=0.3, level=4)
    records, noise = _replay_batch(heat_spec, cfg, 3, seed=5)
    wrong = noise[:2] + [sample_noise(4, cfg.T, cfg.dt, ms, seed=12345)]
    with pytest.raises(ValueError, match="seed"):
        discrete_energy_residuals(records, heat_spec.bundle, wrong, cfg)

    fine = SolverConfig(dt=0.005, T=0.3, level=4)
    fine_records, fine_noise = _replay_batch(heat_spec, fine, 1, seed=6)
    with pytest.raises(ValueError, match="share one step grid"):
        discrete_energy_residuals(records[:1] + fine_records, heat_spec.bundle,
                                  noise[:1] + fine_noise, cfg)
    assert discrete_energy_residuals([], heat_spec.bundle, [], cfg).shape == (0, 0)


def test_replay_rejects_a_realization_shorter_than_its_record(heat_spec):
    # the replay and solve_paths(noise=) share one coverage check and its message
    cfg = SolverConfig(dt=0.01, T=0.3, level=4)
    records, noise = _replay_batch(heat_spec, cfg, 2, seed=5)
    short = sample_noise(4, 0.2, cfg.dt, heat_spec.bundle.mark_space, noise[1].seed)
    with pytest.raises(ValueError, match="does not cover level 4, dt=0.01, T=0.3") as replay:
        discrete_energy_residuals(records, heat_spec.bundle, [noise[0], short], cfg)
    with pytest.raises(ValueError) as solve:
        solve_paths(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg,
                    [short.seed], noise=[short])
    assert str(replay.value) == str(solve.value)
    # nor does a Wiener matrix shorter than the realization's own horizon
    clipped = dataclasses.replace(noise[1], wiener=noise[1].wiener[:10])
    with pytest.raises(ValueError, match="10 steps. does not cover"):
        solve_paths(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg,
                    [clipped.seed], noise=[clipped])


@pytest.mark.parametrize("variant", ["closed-form", "newton", "fd-newton", "tamed"])
@pytest.mark.parametrize("n_paths, T, dt", [(8, 0.3, 0.01), (3, 0.5, 0.005)], ids=["8x30", "3x100"])
def test_stacked_replay_of_a_time_dependent_bundle_matches_serial_replay(variant, n_paths, T, dt):
    # every coefficient reads t, so a replay that gave a row the wrong time,
    # or none, would change its bits; 3 paths take chunks of 42 steps
    triple, bundle = make_time_dependent(level=3)
    if variant != "closed-form":
        bundle = dataclasses.replace(bundle, drift_implicit_solve=None)
    if variant == "fd-newton":
        bundle = dataclasses.replace(bundle, drift_jacobian=None)
    scheme = "tamed_explicit" if variant == "tamed" else "drift_implicit"
    cfg = SolverConfig(dt=dt, T=T, level=3, scheme=scheme)
    seeds = _seeds(21, n_paths)
    noise = [sample_noise(3, T, dt, bundle.mark_space, s) for s in seeds]
    records = solve_paths(bundle, triple, np.array([1.0, -0.5, 0.25]), cfg, seeds, noise=noise)
    _assert_matches_serial(bundle, cfg, records, noise)
    assert sum(rec.n_jump_entries for rec in records) > 0


def _recording(bundle):
    """The bundle with every time-taking callable wrapped to log (name, rows)."""
    calls = []

    def wrap(name, fn):
        def logged(t, u, *rest):
            calls.append((name, int(np.prod(u.shape[:-1]))))
            return fn(t, u, *rest)
        return logged

    names = ("drift", "diffusion", "jump", "drift_jacobian", "drift_implicit_solve",
             "diffusion_matvec", "jump_weighted_sum")
    fields = {n: wrap(n, getattr(bundle, n)) for n in names if getattr(bundle, n) is not None}
    return dataclasses.replace(bundle, **fields), calls


@pytest.mark.parametrize("n_paths", [1, 8])
def test_replay_calls_stay_within_the_row_cap(heat_spec, n_paths):
    # 500 steps: 128 steps of one path, or 16 steps of 8 paths, per chunk
    cfg = SolverConfig(dt=1e-3, T=0.5, level=4)
    records, noise = _replay_batch(heat_spec, cfg, n_paths, seed=2)
    bundle, calls = _recording(heat_spec.bundle)
    series = discrete_energy_residuals(records, bundle, noise, cfg)
    assert series.shape == (n_paths, 500)
    assert max(rows for _, rows in calls) <= AUDIT_BATCH_ROWS
    diffusion = [rows for name, rows in calls if name == "diffusion"]
    assert len(diffusion) == -(-500 * n_paths // AUDIT_BATCH_ROWS)
    assert sum(diffusion) == 500 * n_paths


def test_replay_runs_the_solvers_halved_drift_retry():
    # from ‖x0‖ = 60 burgers1d's full implicit step at dt 0.05 stalls, and
    # the solver finishes it with two dt/2 substeps: the replay takes the
    # same retry, so the record replays to finite residuals
    spec = builtin("burgers1d")
    x0 = np.array([30.0, 30.0, 30.0, 30.0])
    cfg = SolverConfig(dt=0.05, T=0.2, level=4)
    seeds = _seeds(0, 4)
    noise = [sample_noise(4, cfg.T, cfg.dt, spec.bundle.mark_space, s) for s in seeds]
    records = solve_paths(spec.bundle, spec.triple, x0, cfg, seeds, noise=noise)
    assert all(rec.truncated_at is None for rec in records)
    series = discrete_energy_residuals(records, spec.bundle, noise, cfg)
    assert np.all(np.isfinite(series))

    # step 0 of path 0 by hand: the two substep pairings, each weighted dt/2
    bundle, dt = spec.bundle, cfg.dt
    t, grid = records[0].times[records[0].is_grid], records[0].states[records[0].is_grid]
    x, x_next = grid[0], grid[1]
    assert _newton_rows(bundle, x[None], t[0] + dt, dt, cfg)[1]
    half, failed = _newton_rows(bundle, x[None], t[0] + dt / 2, dt / 2, cfg)
    y, failed_end = _newton_rows(bundle, half, t[0] + dt / 2 + dt / 2, dt / 2, cfg)
    assert not failed and not failed_end
    ends = ((t[0] + dt / 2, half[0]), (t[0] + dt / 2 + dt / 2, y[0]))
    drift = dt * sum(float(np.dot(bundle.drift(s, v), v)) for s, v in ends)
    b = bundle.diffusion(t[0], x)
    wiener = float(np.sum(b * b)) * dt + 2.0 * float(np.dot(b @ noise[0].wiener[0, :4], x))
    comp = dt * sum(lam * 2.0 * float(np.dot(bundle.jump(t[0], x, z), x))
                    for z, lam in zip(bundle.mark_space.marks, bundle.mark_space.weights))
    assert records[0].times[1] == t[1]  # no jump in step 0
    want = float(np.dot(x_next, x_next) - np.dot(x, x)) - (drift + wiener - comp)
    assert series[0, 0] == pytest.approx(want, rel=1e-12)


def test_residual_totals_are_the_replays_row_sums(heat_spec):
    # a study's total per path is its replayed row summed, as the serial
    # replay's own per-step residuals sum, bit for bit
    configs = [SolverConfig(dt=0.02, T=0.3, level=4), SolverConfig(dt=0.01, T=0.3, level=4)]
    totals = estimates.residual_totals(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                                       configs, 8, 5)
    assert totals.shape == (2, 8)
    for cfg, row in zip(configs, totals):
        records, noise = _replay_batch(heat_spec, cfg, 8, 5)
        assert sum(rec.n_jump_entries for rec in records) > 0
        series = _assert_matches_serial(heat_spec.bundle, cfg, records, noise)
        np.testing.assert_array_equal(row, series.sum(axis=1), strict=True)
        np.testing.assert_array_equal(row, [steps.sum() for steps in series])


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
        solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=200 + i)
        for i in range(60)
    ]
    deltas = [4 * dt, 8 * dt, 16 * dt, 32 * dt, 64 * dt]
    result = modulus_of_continuity(paths, deltas, 2.0)
    assert 0.35 <= result.log_slope() <= 0.65
    assert result.consistent_with_tightness


def test_modulus_rejects_records_off_one_step_grid():
    # one exact rule with the replay: grid times 1e-9 apart are two grids
    dt, T = 0.05, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    moved = times.copy()
    moved[3] *= 1.0 + 1e-9
    states = np.tile([1.5, -0.5], (times.size, 1))
    paths = [_record_from_states(times, states, dt, T), _record_from_states(moved, states, dt, T)]
    with pytest.raises(ValueError, match="share one step grid"):
        modulus_of_continuity(paths, [2 * dt], 2.0)


def test_modulus_rejects_off_grid_delta():
    dt, T = 0.1, 1.0
    times = np.arange(0.0, T + dt / 2, dt)
    states = np.zeros((times.size, 1))
    paths = [_record_from_states(times, states, dt, T)]
    with pytest.raises(ValueError):
        modulus_of_continuity(paths, [0.15], 2.0)
    with pytest.raises(ValueError):
        modulus_of_continuity(paths, [2.0], 2.0)
