"""Uniqueness replay, weighted stability, dependence, level convergence."""

import dataclasses

import numpy as np
import pytest

from levyspde import parallel
from levyspde.coefficients import CoefficientBundle, HypothesisConstants
from levyspde.noise import JumpEvent, MarkSpace, NoiseRealization, sample_noise
from levyspde.solver import SolverConfig, solve_paths
from levyspde.spaces import GelfandTriple
from levyspde.wellposedness import (
    _reorder_same_step_marks,
    _stability_weights,
    continuous_dependence_study,
    galerkin_convergence,
    pathwise_uniqueness_test,
    weighted_stability_mc,
)



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
    times, states = np.arange(21) * 0.1, np.zeros((21, 1))
    phis = _stability_weights(constants.f_at, lambda s: np.full(s.shape[:-1], 0.1),
                              lambda s: np.full(s.shape[:-1], 0.2), times, states, states)
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
    monkeypatch.setattr(parallel, "STUDY_BATCH", 1)
    assert_same(run(1), reference)
    assert_same(run(2), reference)
