"""Uniqueness replay, weighted stability, dependence, level convergence."""

import dataclasses
import math

import numpy as np
import pytest

from levyspde import estimates, parallel, solver, wellposedness
from levyspde.coefficients import AUDIT_BATCH_ROWS, CoefficientBundle, HypothesisConstants
from levyspde.models import builtin
from levyspde.noise import JumpEvent, MarkSpace, NoiseRealization, ci99, sample_noise
from levyspde.rng import path_seed
from levyspde.solver import SolverConfig, solve_paths
from levyspde.spaces import GelfandTriple, dot_rows
from levyspde.wellposedness import (
    _reorder_same_step_marks,
    _stability_weights,
    continuous_dependence_study,
    galerkin_convergence,
    pathwise_uniqueness_test,
    uniqueness_sups,
    weighted_stability_mc,
)


def _fixed_batches(seed, n_paths, size):
    """The path seeds 0 .. n_paths-1 under ``seed``, in tasks of ``size`` paths."""
    seeds = [path_seed(seed, i) for i in range(n_paths)]
    return [seeds[i : i + size] for i in range(0, n_paths, size)]


def test_uniqueness_exact_zero_for_replay(heat_spec, allen_cahn_spec):
    for spec in (heat_spec, allen_cahn_spec):
        cfg = SolverConfig(dt=0.01, T=0.5, level=4)
        sup = pathwise_uniqueness_test(
            spec.bundle, spec.triple, spec.default_x0, cfg,
            n_paths=6, seed=0,
        )
        assert sup == 0.0


def test_uniqueness_stress_commuting_jumps_within_float_noise(heat_spec):
    # multiplicative jumps commute; reordering leaves only reassociation
    # rounding on the step grid, below the 1e-12 scale threshold
    marks = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([10.0, 10.0]))
    from levyspde.models import builtin

    spec = builtin("heat", marks=marks)
    cfg = SolverConfig(dt=0.25, T=2.0, level=3)
    sup = pathwise_uniqueness_test(
        spec.bundle, spec.triple, spec.default_x0, cfg, n_paths=8, seed=1,
        stress=True,
    )
    scale = float(np.linalg.norm(spec.default_x0))
    assert sup <= 1e-12 * scale


def test_uniqueness_stress_reports_reordering_effect():
    # a quadratic jump map does not commute; high intensity and a coarse
    # grid force many shared steps
    marks = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([10.0, 10.0]))
    triple = GelfandTriple(dimension_cap=2, v_weights=np.ones(2))
    bundle = CoefficientBundle(
        drift=lambda t, u: -u,
        diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
        jump=lambda t, u, z: 0.01 * z * u**2,
        mark_space=marks,
        drift_jacobian=lambda t, u: np.broadcast_to(-np.eye(u.shape[-1]), u.shape + u.shape[-1:]),
    )
    cfg = SolverConfig(dt=0.25, T=2.0, level=2)
    sup = pathwise_uniqueness_test(bundle, triple, np.array([1.0, 0.5]), cfg,
                                   n_paths=8, seed=2, stress=True)
    assert np.isfinite(sup)
    assert 0.0 < sup < 1e-2  # bounded reordering effect, far below the state scale


def _per_pair_uniqueness(bundle, triple, x0, config, n_paths, seed, stress):
    """Each pair's sup_t ‖Y1 − Y2‖_H from whole-state records on the step
    grid, in batches of 8 pairs; NaN for a pair with a truncated record."""
    sups = []
    for seeds in _fixed_batches(seed, n_paths, 8):
        n = len(seeds)
        first = [sample_noise(config.level, config.T, config.dt, bundle.mark_space, s) for s in seeds]
        second = [_reorder_same_step_marks(r, config.dt) for r in first] if stress else first
        records = solve_paths(bundle, triple, x0, config, seeds + seeds, noise=first + second)
        for rec1, rec2 in zip(records[:n], records[n:]):
            if rec1.truncated_at is not None or rec2.truncated_at is not None:
                sups.append(float("nan"))
                continue
            diff = rec1.states[rec1.is_grid] - rec2.states[rec2.is_grid]
            sups.append(float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max()))
    return np.array(sups)


@pytest.mark.parametrize("stress", [False, True], ids=["replay", "stress"])
@pytest.mark.parametrize("case", ["heat", "allen_cahn", "burgers1d", "planted-truncation"])
def test_streamed_uniqueness_equals_the_per_pair_records(case, stress):
    # 40 pairs: one task of 80 solver rows whose grid states are reduced as
    # they come, against whole records in batches of 8; the heavy marks put
    # several jumps in one step, so the stress reorder moves the bits
    if case == "planted-truncation":
        bundle, x0 = _stalling_pair_bundle(), np.array([0.8])
        triple = GelfandTriple(dimension_cap=1, v_weights=np.ones(1))
        cfg = SolverConfig(dt=0.01, T=0.3, level=1)
    else:
        marks = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([10.0, 10.0]))
        spec = builtin(case, marks=marks)
        bundle, triple, x0 = spec.bundle, spec.triple, spec.default_x0
        cfg = SolverConfig(dt=0.05, T=0.5, level=6)
    got = uniqueness_sups(bundle, triple, x0, cfg, n_paths=40, seed=2, stress=stress)
    want = _per_pair_uniqueness(bundle, triple, x0, cfg, 40, 2, stress)
    np.testing.assert_array_equal(got, want)
    if case == "planted-truncation":
        assert 0 < np.isnan(want).sum() < 40
    else:
        assert not np.isnan(want).any() and (want.max() > 0.0) == stress


def test_stress_reorder_groups_marks_by_solver_step():
    # steps are (k dt, (k+1) dt]: 0.2 ends the step of 0.15, while 0.25
    # starts the next one, so only the first two marks trade places
    real = NoiseRealization(
        wiener=np.zeros((10, 1)),
        jumps=(JumpEvent(0.15, 0), JumpEvent(0.2, 1), JumpEvent(0.25, 2)),
        seed=0, m=1, dt=0.1, T=1.0,
    )
    out = _reorder_same_step_marks(real, 0.1)
    assert [ev.time for ev in out.jumps] == [0.15, 0.2, 0.25]
    assert [ev.mark_index for ev in out.jumps] == [1, 0, 2]


def test_stability_linear_contractive_passes(heat_spec, quiet_heat_spec):
    # f = 0 and rho = eta = 0 for the diagonal model: phi = 1 and the mean
    # squared gap decays from ‖Δx‖²
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    x0 = heat_spec.default_x0
    x0_b = x0.copy()
    x0_b[0] += 0.5
    result = weighted_stability_mc(
        heat_spec.bundle, heat_spec.triple, heat_spec.constants, x0, x0_b, cfg,
        n_paths=100, seed=0,
    )
    assert result.passed
    assert result.bound == pytest.approx(0.25, rel=1e-12)
    assert result.lhs_curve[0] == pytest.approx(0.25, rel=1e-12)
    assert result.lhs_curve[-1] < result.lhs_curve[0]

    # noise off: the two-point contraction is deterministic and the decay
    # is strictly monotone (closed-form per-mode factors below 1)
    quiet = weighted_stability_mc(
        quiet_heat_spec.bundle, quiet_heat_spec.triple, quiet_heat_spec.constants,
        x0, x0_b, cfg, n_paths=2, seed=0,
    )
    assert quiet.passed
    assert np.all(np.diff(quiet.lhs_curve) < 0.0)


def test_stability_equal_data_identically_zero(heat_spec):
    cfg = SolverConfig(dt=0.01, T=0.2, level=3)
    result = weighted_stability_mc(
        heat_spec.bundle, heat_spec.triple, heat_spec.constants,
        heat_spec.default_x0, heat_spec.default_x0, cfg, n_paths=10, seed=0,
    )
    np.testing.assert_array_equal(result.lhs_curve, 0.0)
    assert result.passed


def test_stability_requires_functionals(heat_spec):
    bundle = dataclasses.replace(heat_spec.bundle, rho=None, eta=None)
    cfg = SolverConfig(dt=0.01, T=0.1, level=2)
    with pytest.raises(ValueError):
        weighted_stability_mc(bundle, heat_spec.triple, heat_spec.constants,
                              heat_spec.default_x0, heat_spec.default_x0, cfg, n_paths=4, seed=0)


def test_stability_weight_stays_in_unit_interval():
    # f + rho + eta = 0.6: phi(t_k) = exp(-0.6 t_k) up to the summation's rounding
    constants = HypothesisConstants(beta=2.0, f_integral=0.3)
    times = np.arange(21) * 0.1
    rates = (np.full(20, constants.f_at(0.0)) + 0.1) + 0.2
    phis = _stability_weights(rates, times)
    assert phis.shape == (20,)
    assert np.all((phis > 0.0) & (phis <= 1.0))
    assert np.all(np.diff(phis) <= 0.0)
    np.testing.assert_allclose(phis, np.exp(-0.6 * times[1:]), rtol=1e-14)


def test_dependence_zero_perturbation_exact(heat_spec):
    cfg = SolverConfig(dt=0.01, T=0.2, level=3)
    table = continuous_dependence_study(
        heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, [0.0, 1e-2], 2.0,
        cfg, n_paths=8, seed=0,
    )
    assert table.values[0] == 0.0
    assert table.values[1] > 0.0


def test_dependence_linear_model_exact_quadratic_ratio(heat_spec):
    # the difference path is linear in Δ, so the p = 2 moments scale as Δ²
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    table = continuous_dependence_study(
        heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, [1e-3, 1e-2, 1e-1],
        2.0, cfg, n_paths=40, seed=3,
    )
    assert table.log_slope() == pytest.approx(2.0, abs=0.2)
    assert table.values[0] > 0.0
    # measured growth constant stays finite: sup-diff <= C Δ
    c_measured = np.sqrt(table.values[1]) / 1e-2
    assert np.isfinite(c_measured)


def test_dependence_perturbation_example_small_delta(heat_spec):
    # x0 vs x0 + 1e-8 e1: the sup difference stays within the measured
    # linear-growth constant times 1e-8
    cfg = SolverConfig(dt=5e-3, T=0.5, level=4)
    table = continuous_dependence_study(
        heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, [1e-8],
        2.0, cfg, n_paths=20, seed=4,
    )
    sup_mean = np.sqrt(table.values[0])
    assert sup_mean <= 10.0 * 1e-8  # linear growth constant measured well below 10


def test_galerkin_invariant_subspace_exactly_zero(heat_spec):
    x0 = np.zeros(heat_spec.triple.dimension_cap)
    x0[0], x0[1] = 1.0, -0.5
    cfg = SolverConfig(dt=0.01, T=0.5, level=2)
    table = galerkin_convergence(
        heat_spec.bundle, heat_spec.triple, x0, [2, 4, 8], cfg, n_paths=6, seed=0,
    )
    np.testing.assert_array_equal(table.distances, 0.0)


def test_galerkin_self_distance_zero(heat_spec):
    cfg = SolverConfig(dt=0.02, T=0.2, level=4)
    table = galerkin_convergence(
        heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, [2, 4], cfg, n_paths=4, seed=0,
    )
    assert table.distances[-1] == 0.0
    assert table.reference_level == 4


def test_galerkin_heat_distance_equals_reference_tail_oracle(heat_spec):
    # diagonal dynamics evolve shared modes identically, so the level gap is
    # exactly the reference's tail-mode energy
    cfg = SolverConfig(dt=0.01, T=0.5, level=8)
    levels = [2, 4, 8]
    n_paths = 5
    table = galerkin_convergence(
        heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, levels, cfg,
        n_paths=n_paths, seed=7,
    )
    from levyspde.rng import path_seed

    for j, m in enumerate(levels[:-1]):
        oracle_vals = []
        for i in range(n_paths):
            ps = path_seed(7, i)
            real = sample_noise(8, 0.5, 0.01, heat_spec.bundle.mark_space, ps)
            ref = solve_paths(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                              dataclasses.replace(cfg, level=8), [ps], noise=[real])[0]
            tail = ref.states[:, m:]
            sq = np.einsum("ij,ij->i", tail, tail)
            oracle_vals.append(np.sqrt(np.dot(sq[:-1], np.diff(ref.times))))
        assert table.distances[j] == pytest.approx(np.mean(oracle_vals), rel=1e-10)
    assert np.all(np.diff(table.distances) <= 1e-12)


def test_galerkin_level_bound(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=4)
    with pytest.raises(ValueError):
        galerkin_convergence(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0,
                             [4, 1000], cfg, n_paths=2, seed=0)


def test_workers_do_not_change_results(heat_spec):
    cfg = SolverConfig(dt=0.01, T=0.2, level=3)
    args = (heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, [1e-2], 2.0,
            cfg, 8, 5)
    serial = continuous_dependence_study(*args, workers=1)
    parallel = continuous_dependence_study(*args, workers=4)
    np.testing.assert_array_equal(serial.values, parallel.values)


def test_stability_and_dependence_independent_of_workers_and_batches(allen_cahn_spec, monkeypatch):
    # 10 paths: one full batch and a short one; a batch of one path too
    spec = allen_cahn_spec
    cfg = SolverConfig(dt=0.01, T=0.2, level=4)
    x0 = spec.default_x0
    x0_b = x0.copy()
    x0_b[0] += 0.1

    def run(workers):
        stab = weighted_stability_mc(spec.bundle, spec.triple, spec.constants, x0, x0_b, cfg,
                                     n_paths=10, seed=4, workers=workers)
        dep = continuous_dependence_study(spec.bundle, spec.triple, x0, [1e-1, 0.0, 1e-2], 2.0,
                                          cfg, n_paths=10, seed=4,
                                          workers=workers)
        return dataclasses.asdict(stab), dataclasses.asdict(dep)

    def assert_same(got, want):
        for table_got, table_want in zip(got, want):
            assert table_got.keys() == table_want.keys()
            for key in table_want:
                np.testing.assert_array_equal(table_got[key], table_want[key], err_msg=key)

    reference = run(1)
    assert_same(run(2), reference)
    monkeypatch.setattr(parallel, "split_by_rows",
                        lambda seed, n_paths, rows, workers: _fixed_batches(seed, n_paths, 1))
    assert_same(run(1), reference)
    assert_same(run(2), reference)


# ---------------------------------------------------------------------------
# the streamed stability curves against the per-pair records they replace
# ---------------------------------------------------------------------------


def _per_pair_stability(bundle, triple, constants, x0_a, x0_b, config, n_paths, seed):
    """The stability study from whole-state records: each pair's states on
    the step grid, its own weight sum and curve, then the study's reduction."""
    x0 = np.stack([triple.project(u, config.level).coeffs for u in (x0_a, x0_b)])
    pairs = []
    for seeds in _fixed_batches(seed, n_paths, 8):
        n = len(seeds)
        records = solve_paths(bundle, triple, np.repeat(x0, n, axis=0), config, seeds + seeds)
        for rec_a, rec_b in zip(records[:n], records[n:]):
            if rec_a.truncated_at is not None or rec_b.truncated_at is not None:
                pairs.append((True, np.full(config.n_steps + 1, np.nan)))
                continue
            times, s_a = rec_a.times[rec_a.is_grid], rec_a.states[rec_a.is_grid]
            s_b = rec_b.states[rec_b.is_grid]
            f = np.array([constants.f_at(t) for t in times[:-1].tolist()])
            increments = (f + bundle.rho(s_a[:-1]) + bundle.eta(s_b[:-1])) * np.diff(times)
            phis = np.array([math.exp(-v) for v in np.cumsum(increments).tolist()])
            sq = dot_rows(s_a - s_b, s_a - s_b)
            pairs.append((False, np.concatenate([sq[:1], phis * sq[1:]])))
    curves = np.stack([curve for _, curve in pairs])
    lhs = curves.mean(axis=0)
    da = np.zeros(max(x0_a.size, x0_b.size))
    da[: x0_a.size] = x0_a
    da[: x0_b.size] -= x0_b
    margins = float(np.dot(da, da)) * (1.0 + 10.0 * config.dt) - lhs
    worst = int(np.argmin(margins))
    return {
        "lhs_curve": lhs,
        "ci99": np.array([ci99(curves[:, k]) for k in range(curves.shape[1])]),
        "passed": bool(np.all(margins >= 0.0)),
        "worst_t": float(config.dt * worst),
        "worst_margin": float(margins[worst]),
        "truncated_paths": sum(truncated for truncated, _ in pairs),
    }


def _stalling_pair_bundle():
    # past u = 1.0100003 the implicit step y - dt(-y + 1e8 (y-1)_+^2) = u has
    # no root at dt = 0.01, so the pairs whose noise lifts them stop there
    marks = MarkSpace(marks=np.array([0.5]), weights=np.array([1.0]))
    return CoefficientBundle(
        drift=lambda t, u: -u + 1e8 * np.maximum(u - 1.0, 0.0) ** 2,
        diffusion=lambda t, u: 0.8 * u[..., None],
        jump=lambda t, u, z: z * u,
        mark_space=marks,
        rho=lambda u: 0.5 * u[..., 0] ** 2,
        eta=lambda u: 0.25 * np.abs(u[..., 0]),
    )


def _stability_case(case):
    if case == "planted-truncation":
        triple = GelfandTriple(dimension_cap=1, v_weights=np.ones(1))
        constants = HypothesisConstants(beta=2.0, f_integral=0.3)
        return _stalling_pair_bundle(), triple, constants, np.array([0.8]), np.array([0.7])
    marks = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([3.0, 3.0]))
    spec = builtin("heat", marks=marks) if case == "heat-jumps" else builtin(case)
    x0_b = spec.default_x0.copy()
    x0_b[0] += 0.3
    return spec.bundle, spec.triple, spec.constants, spec.default_x0, x0_b


@pytest.mark.parametrize("scheme", ["drift_implicit", "tamed_explicit"])
@pytest.mark.parametrize(
    "case", ["allen_cahn", "burgers1d", "p_laplacian", "heat-jumps", "planted-truncation"])
def test_streamed_stability_equals_the_per_pair_records(case, scheme):
    # 40 pairs: 80 solver rows step in Wiener chunks of 12 steps, against
    # the per-pair computation on whole records in batches of 8
    bundle, triple, constants, x0_a, x0_b = _stability_case(case)
    cfg = SolverConfig(dt=0.01, T=0.3, level=min(6, triple.dimension_cap), scheme=scheme)
    result = weighted_stability_mc(bundle, triple, constants, x0_a, x0_b, cfg, n_paths=40, seed=2)
    want = _per_pair_stability(bundle, triple, constants, x0_a, x0_b, cfg, 40, 2)
    for key, value in want.items():
        np.testing.assert_array_equal(getattr(result, key), value, err_msg=key)
    if case == "planted-truncation" and scheme == "drift_implicit":
        assert 0 < result.truncated_paths < 40
        assert not result.passed and np.isnan(result.worst_margin)
    else:
        assert result.truncated_paths == 0


def test_stability_takes_no_weight_of_a_truncated_pairs_rows(heat_spec):
    # ‖x0‖_H overflows, so every pair is truncated at t = 0; its finite first
    # rows would give ρ = -1e308 and a weight exp(1e306) that math.exp
    # cannot represent, and its later rows are not finite
    bundle = dataclasses.replace(heat_spec.bundle, rho=lambda u: -u[..., 0])
    cfg = SolverConfig(dt=0.01, T=0.1, level=2)
    x0 = np.array([1e308, 1e308])
    result = weighted_stability_mc(bundle, heat_spec.triple, heat_spec.constants,
                                   x0, 0.5 * x0, cfg, n_paths=5, seed=0)
    assert result.truncated_paths == 5 and not result.passed
    assert np.all(np.isnan(result.lhs_curve))


@pytest.mark.parametrize("pairs_per_batch", [1, 3, None], ids=["one-pair", "three-pairs", "whole-study"])
def test_stability_independent_of_its_batch_count_and_workers(allen_cahn_spec, monkeypatch,
                                                              pairs_per_batch):
    # the batch rule is one task per worker; any other split gives the same bits
    spec = allen_cahn_spec
    cfg = SolverConfig(dt=0.01, T=0.2, level=4)
    x0_b = spec.default_x0.copy()
    x0_b[0] += 0.1

    def run(workers):
        result = weighted_stability_mc(spec.bundle, spec.triple, spec.constants, spec.default_x0,
                                       x0_b, cfg, n_paths=10, seed=4, workers=workers)
        return dataclasses.asdict(result)

    reference = run(1)
    monkeypatch.setattr(parallel, "split_by_rows", lambda seed, n_paths, rows, workers:
                        _fixed_batches(seed, n_paths, pairs_per_batch or n_paths))
    for workers in (1, 2):
        got = run(workers)
        assert got.keys() == reference.keys()
        for key in reference:
            np.testing.assert_array_equal(got[key], reference[key], err_msg=key)


def test_stability_calls_stay_within_the_row_caps(allen_cahn_spec, monkeypatch):
    # 100 pairs: two tasks of 100 solver rows; every coefficient call sees at
    # most AUDIT_BATCH_ROWS rows and every Wiener chunk at most 1024
    spec = allen_cahn_spec
    seen = {name: [] for name in ("drift", "drift_jacobian", "rho", "eta", "wiener")}

    def counted(name, fn):
        def wrapped(*args):
            seen[name].append(int(np.prod(np.shape(args[-1])[:-1])))
            return fn(*args)
        return wrapped

    bundle = dataclasses.replace(spec.bundle, **{
        name: counted(name, getattr(spec.bundle, name))
        for name in ("drift", "drift_jacobian", "rho", "eta")})
    draw = solver.wiener_chunks

    def wiener_chunks(*args):
        for chunk in draw(*args):
            seen["wiener"].append(chunk.shape[0] * chunk.shape[1])
            yield chunk

    tasks = []
    run_tasks = parallel.map_indexed

    def serial_map(fn, ctx, n, workers):
        tasks.append(n)
        return run_tasks(fn, ctx, n, 1)

    monkeypatch.setattr(solver, "wiener_chunks", wiener_chunks)
    monkeypatch.setattr(parallel, "map_indexed", serial_map)
    cfg = SolverConfig(dt=0.01, T=0.3, level=8)
    x0_b = spec.default_x0.copy()
    x0_b[0] += 0.1
    weighted_stability_mc(bundle, spec.triple, spec.constants, spec.default_x0, x0_b, cfg,
                          n_paths=100, seed=0)
    assert tasks == [2]  # max(workers, ceil(2 * 100 / 128))
    assert seen["wiener"] == [1000] * 6  # 10 steps of 100 rows, three chunks per task
    for name, rows in seen.items():
        assert rows and max(rows) <= (1024 if name == "wiener" else AUDIT_BATCH_ROWS), name
    # more workers than the row cap asks for: one task each
    weighted_stability_mc(bundle, spec.triple, spec.constants, spec.default_x0, x0_b, cfg,
                          n_paths=10, seed=0, workers=3)
    assert tasks == [2, 3]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_path_studies_stay_within_the_row_cap(heat_spec, monkeypatch, workers):
    # each study splits its paths by split_by_rows at its own rows per path,
    # and no solve takes more than AUDIT_BATCH_ROWS rows; depend and
    # converge solve 3 rows per path, which 128 does not divide; a study of
    # no paths fails closed
    spec = heat_spec
    calls, tasks = [], []
    run_tasks = parallel.map_indexed

    def counted(solve):
        def wrapped(*args, **kwargs):
            calls.append(len(args[4]))
            return solve(*args, **kwargs)
        return wrapped

    def serial_map(fn, ctx, n, workers):
        tasks.append(n)
        return run_tasks(fn, ctx, n, 1)

    monkeypatch.setattr(parallel, "map_indexed", serial_map)
    for module in (estimates, wellposedness):
        monkeypatch.setattr(module, "solve_paths", counted(module.solve_paths))
    cfg = SolverConfig(dt=0.02, T=0.1, level=4)
    args = (spec.bundle, spec.triple, spec.default_x0)
    # name: (rows per path, paths, solves per path, study); residual solves
    # each path once per dt level, one level after the other in its batch's
    # task, so each solve is one row per path
    studies = {
        "residual": (1, 130, 2, lambda: estimates.residual_totals(
            *args, [cfg, dataclasses.replace(cfg, dt=0.01)], 130, 0, workers=workers)),
        "modulus": (1, 130, 1, lambda: estimates.modulus_study(
            *args, cfg, [0.02, 0.04], 2.0, 130, 0, workers=workers)),
        "uniqueness": (2, 70, 1, lambda: uniqueness_sups(*args, cfg, 70, 0, workers=workers)),
        "depend": (3, 50, 1, lambda: continuous_dependence_study(
            *args, [0.1, 0.0, 0.01], 2.0, cfg, 50, 0, workers=workers)),
        "converge": (3, 50, 1, lambda: galerkin_convergence(
            *args, [2, 4, 8], cfg, 50, 0, workers=workers)),
    }
    for name, (rows_per_path, n_paths, solves, run) in studies.items():
        calls.clear()
        tasks.clear()
        run()
        split = parallel.split_by_rows(0, n_paths, rows_per_path, workers)
        assert tasks == [len(split)], name
        assert sum(calls) == solves * rows_per_path * n_paths, name
        assert max(calls) <= AUDIT_BATCH_ROWS, name
        assert workers > 1 or len(split) == 2, name  # one worker, but the cap splits
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        uniqueness_sups(*args, cfg, 0, 0, workers=workers)


def test_depend_and_uniqueness_count_the_truncated_paths():
    # the pairs whose noise lifts them past the stall stop; the rest go on
    bundle = _stalling_pair_bundle()
    triple = GelfandTriple(dimension_cap=1, v_weights=np.ones(1))
    cfg = SolverConfig(dt=0.01, T=0.3, level=1)
    x0 = np.array([0.8])
    sups = uniqueness_sups(bundle, triple, x0, cfg, n_paths=40, seed=2)
    stopped = np.isnan(sups)
    assert 0 < stopped.sum() < 40 and np.all(sups[~stopped] == 0.0)
    assert np.isnan(pathwise_uniqueness_test(bundle, triple, x0, cfg, n_paths=40, seed=2))
    table = continuous_dependence_study(bundle, triple, x0, [1e-2, 1e-3], 2.0, cfg,
                                        n_paths=40, seed=2)
    assert table.truncated_paths >= stopped.sum() and np.all(np.isnan(table.values))
