"""Time stepping: scheme correctness, cadlag structure, stopping."""

import dataclasses

import numpy as np
import pytest

from levyspde.coefficients import CoefficientBundle
from levyspde.models import builtin
from levyspde.noise import JumpEvent, MarkSpace, NoiseRealization, sample_noise
from levyspde.rng import path_seed
from levyspde.solver import (
    SolverConfig,
    StepFailure,
    StoppingTimeRule,
    _newton_rows,
    apply_stopping,
    solve_path,
    solve_paths,
)
from levyspde.spaces import GelfandTriple

from conftest import make_pure_jump, make_scalar_linear, make_time_dependent


def _quiet(m, dt, T, jumps=()):
    """A realization with zero Wiener increments and the given jump events."""
    return NoiseRealization(wiener=np.zeros((round(T / dt), m)), jumps=jumps, seed=0, m=m, dt=dt, T=T)


def test_zero_dynamics_keeps_state(quiet_heat_spec):
    triple, bundle = quiet_heat_spec.triple, quiet_heat_spec.bundle
    zero_bundle = dataclasses.replace(
        bundle,
        drift=lambda t, u: np.zeros(u.shape),
        drift_jacobian=None,
        drift_implicit_solve=None,
    )
    x0 = np.array([1.0, -2.0, 0.5])
    cfg = SolverConfig(dt=0.1, T=0.2, level=3)
    rec = solve_paths(zero_bundle, triple, x0, cfg, [0], noise=[_quiet(3, 0.1, 0.2)])[0]
    np.testing.assert_array_equal(rec.states[1], x0)


def test_backward_euler_closed_form():
    # scalar linear mode: x+ = x / (1 + mu dt), oracle vs generic Newton
    mu, dt = 2.5, 0.05
    triple, bundle, _ = make_scalar_linear(mu=mu, sigma=0.0)
    newton_bundle = dataclasses.replace(bundle, drift_implicit_solve=None)
    cfg = SolverConfig(dt=dt, T=1.0, level=1)
    for b in (bundle, newton_bundle):
        rec = solve_paths(b, triple, np.array([1.7]), cfg, [0], noise=[_quiet(1, dt, 1.0)])[0]
        assert rec.states[1, 0] == pytest.approx(1.7 / (1.0 + mu * dt), rel=1e-12)


def test_constant_jump_step_with_compensator():
    # one jump in the step: x+ = x + g - dt lam(Z) g
    g = np.array([0.3, -0.1])
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([1.5]))
    triple, bundle, _ = make_pure_jump(g, marks=marks)
    x0 = np.array([1.0, 1.0])
    dt = 0.2
    rec = solve_paths(bundle, triple, x0, SolverConfig(dt=dt, T=1.0, level=2), [0],
                      noise=[_quiet(2, dt, 1.0, jumps=(JumpEvent(0.13, 0),))])[0]
    np.testing.assert_allclose(rec.states[rec.is_grid][1], x0 + g - dt * 1.5 * g, rtol=1e-14)


def test_jump_outside_step_rejected():
    # steps are (k dt, (k+1) dt], so a jump at t = 0 lies outside the first
    g = np.array([1.0])
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([1.0]))
    triple, bundle, _ = make_pure_jump(g, marks=marks, level=1)
    with pytest.raises(ValueError):
        solve_paths(bundle, triple, np.array([0.0]), SolverConfig(dt=0.1, T=1.0, level=1),
                    [0], noise=[_quiet(1, 0.1, 1.0, jumps=(JumpEvent(0.0, 0),))])


def test_solve_path_constant_for_zero_coefficients(quiet_heat_spec):
    triple = quiet_heat_spec.triple
    bundle = dataclasses.replace(
        quiet_heat_spec.bundle,
        drift=lambda t, u: np.zeros(u.shape),
        drift_jacobian=None,
        drift_implicit_solve=None,
    )
    x0 = np.array([2.0, -1.0, 0.0, 3.0])
    cfg = SolverConfig(dt=0.1, T=1.0, level=3)
    rec = solve_path(bundle, triple, x0, cfg, seed=0)
    for row in rec.states:
        np.testing.assert_array_equal(row, x0[:3])
    np.testing.assert_array_equal(rec.states[0], triple.project(x0, 3).coeffs)


def test_heat_flow_monotone_decay_and_per_mode_accuracy(quiet_heat_spec):
    # per-mode exact decay x_j(t) = x_j(0) exp(-w_j t); the scheme constant
    # scales with w_j^2 T/2, so the tolerance is checked per mode
    spec = quiet_heat_spec
    dt, T, m = 1e-3, 1.0, 2
    cfg = SolverConfig(dt=dt, T=T, level=m)
    rec = solve_path(spec.bundle, spec.triple, spec.default_x0, cfg, seed=0)
    assert np.all(np.diff(rec.norm_h) <= 1e-14)
    w = spec.triple.v_weights[:m]
    exact = spec.default_x0[:m] * np.exp(-w * T)
    rel = np.abs(rec.states[-1] - exact) / np.abs(exact)
    assert np.all(rel <= 10.0 * dt)


def test_jump_only_event_bookkeeping_oracle():
    # gamma(u, z) = z e1 on marks {+1, -1} with equal weights: the final
    # first coordinate is x1 + (N+ - N-); the compensator cancels by symmetry
    marks = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([1.0, 1.0]))
    from levyspde.coefficients import CoefficientBundle
    from levyspde.spaces import GelfandTriple

    triple = GelfandTriple(dimension_cap=2, v_weights=np.ones(2))
    bundle = CoefficientBundle(
        drift=lambda t, u: np.zeros(u.shape),
        diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
        jump=lambda t, u, z: np.broadcast_to(z * np.eye(u.shape[-1])[0], u.shape),
        mark_space=marks,
    )
    cfg = SolverConfig(dt=0.05, T=2.0, level=2)
    real = sample_noise(2, 2.0, 0.05, marks, seed=21)
    rec = solve_paths(bundle, triple, np.array([0.7, 0.0]), cfg, [21], noise=[real])[0]
    n_plus = sum(1 for ev in real.jumps if marks.marks[ev.mark_index] > 0)
    n_minus = len(real.jumps) - n_plus
    assert rec.states[-1, 0] == pytest.approx(0.7 + n_plus - n_minus, abs=1e-12)
    assert rec.n_jump_entries == len(real.jumps)


def test_cadlag_structure_bit_exact_replay(heat_spec):
    spec = heat_spec
    cfg = SolverConfig(dt=0.01, T=2.0, level=4)
    rec = solve_path(spec.bundle, spec.triple, spec.default_x0, cfg, seed=3)
    assert rec.n_jump_entries > 0
    real = sample_noise(4, 2.0, 0.01, spec.bundle.mark_space, seed=3)
    jumps = list(real.jumps)
    seen = 0
    for k in np.nonzero(rec.is_jump_post)[0]:
        pre = rec.states[k - 1]
        post = rec.states[k]
        assert rec.times[k] == rec.times[k - 1]
        ev = jumps[seen]
        assert ev.time == rec.times[k]
        gamma = spec.bundle.jump(ev.time, pre, float(spec.bundle.mark_space.marks[ev.mark_index]))
        assert np.array_equal(pre + gamma, post)
        seen += 1
    assert seen == len(jumps)


def test_record_times_strictly_increase_between_jump_rows(heat_spec):
    cfg = SolverConfig(dt=0.01, T=1.0, level=3)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=5)
    for k in range(rec.times.size - 1):
        if rec.is_jump_post[k + 1]:
            assert rec.times[k + 1] == rec.times[k]
        else:
            assert rec.times[k + 1] > rec.times[k]


def test_norm_cache_coherence(heat_spec):
    cfg = SolverConfig(dt=0.02, T=1.0, level=5)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=11)
    w = heat_spec.triple.v_weights[:5]
    for k in range(rec.times.size):
        u = rec.states[k]
        assert rec.norm_h[k] == pytest.approx(np.sqrt(np.dot(u, u)), rel=1e-14)
        assert rec.norm_v[k] == pytest.approx(np.sqrt(np.dot(w * u, u)), rel=1e-14)


def test_linearity_probe_exact_scaling(quiet_heat_spec):
    # power-of-two scaling commutes with float rounding, so the linear
    # scheme reproduces c * path bit-exactly
    spec = quiet_heat_spec
    cfg = SolverConfig(dt=0.01, T=0.5, level=4)
    base = solve_path(spec.bundle, spec.triple, spec.default_x0, cfg, seed=7)
    scaled = solve_path(spec.bundle, spec.triple, 4.0 * spec.default_x0, cfg, seed=7)
    np.testing.assert_array_equal(scaled.states, 4.0 * base.states)
    # general scalings agree to rounding
    scaled3 = solve_path(spec.bundle, spec.triple, 3.0 * spec.default_x0, cfg, seed=7)
    np.testing.assert_allclose(scaled3.states, 3.0 * base.states, rtol=1e-13)


def test_strong_order_one_against_exact_coupled_ou():
    # additive-noise linear model; the reference is the exact solution
    # driven by the same increments, with the conditionally independent
    # remainder drawn from a dedicated stream
    mu, sigma, x0, T = 2.0, 0.4, 1.0, 0.5
    triple, bundle, _ = make_scalar_linear(mu=mu, sigma=sigma, additive=True)
    n_fine = 512
    dt_fine = T / n_fine
    levels = [16, 32, 64, 128]  # steps per level
    n_paths = 400

    rng_w = np.random.default_rng(505)
    rng_z = np.random.default_rng(606)
    dw_fine = rng_w.normal(0.0, np.sqrt(dt_fine), size=(n_paths, n_fine))

    # exact endpoint: eta_k = (c/dt) dW_k + zeta_k per fine step
    e = np.exp(-mu * dt_fine)
    q = (1.0 - e**2) / (2.0 * mu)
    c = (1.0 - e) / mu
    var_rem = q - c**2 / dt_fine
    zeta = rng_z.normal(0.0, np.sqrt(max(var_rem, 0.0)), size=(n_paths, n_fine))
    x_exact = np.full(n_paths, x0)
    for k in range(n_fine):
        x_exact = e * x_exact + sigma * ((c / dt_fine) * dw_fine[:, k] + zeta[:, k])

    errs = []
    dts = []
    for steps in levels:
        dt = T / steps
        ratio = n_fine // steps
        dw = dw_fine.reshape(n_paths, steps, ratio).sum(axis=2)
        endpoint = np.empty(n_paths)
        for i in range(n_paths):
            real = NoiseRealization(
                wiener=dw[i][:, None], jumps=(), seed=0, m=1, dt=dt, T=T
            )
            cfg = SolverConfig(dt=dt, T=T, level=1)
            rec = solve_paths(bundle, triple, np.array([x0]), cfg, [0], noise=[real])[0]
            endpoint[i] = rec.states[-1, 0]
        errs.append(np.abs(endpoint - x_exact).mean())
        dts.append(dt)
    slope = np.polyfit(np.log2(dts), np.log2(errs), 1)[0]
    assert 0.8 <= slope <= 1.2, f"strong-order slope {slope}"


def test_stopping_void_set_returns_horizon(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=3)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=2)
    out, tau = apply_stopping(rec, StoppingTimeRule(N=1e6), beta=2.0)
    assert tau == 1.0
    assert out.times.size == rec.times.size
    assert out.stopped_at is None or out.stopped_at == 1.0


def test_stopping_threshold_crossing_detected():
    # craft a record whose H-norm blows past N at a known time
    times = np.array([0.0, 0.5, 1.0])
    states = np.array([[1.0], [3.0], [1.0]])
    rec_args = dict(
        times=times,
        states=states,
        is_jump_post=np.zeros(3, dtype=bool),
        is_grid=np.ones(3, dtype=bool),
        norm_h=np.abs(states[:, 0]),
        norm_v=np.abs(states[:, 0]),
        level=1, dt=0.5, T=1.0,
    )
    from levyspde.solver import PathRecord

    rec = PathRecord(**rec_args)
    out, tau = apply_stopping(rec, StoppingTimeRule(N=8.0), beta=2.0)
    assert tau == 0.5  # ‖Y(0.5)‖² = 9 > 8
    assert out.times[-1] == 0.5 and out.stopped_at == 0.5


def test_stopping_running_integral_crossing_oracle(heat_spec):
    # independent left-Riemann accumulation locates the first grid crossing;
    # ‖x0‖_H² starts below N and the V-integral (β = 4) crosses it first
    cfg = SolverConfig(dt=0.05, T=1.0, level=4)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, 2.0 * heat_spec.default_x0, cfg, seed=4)
    beta = 4.0
    n_threshold = 0.9 * float(np.dot(rec.norm_v[:-1] ** beta, np.diff(rec.times)))
    assert rec.norm_h[0] ** 2 < n_threshold
    out, tau = apply_stopping(rec, StoppingTimeRule(N=n_threshold), beta=beta)
    # at the cut ‖Y‖_H² <= N, so the stop came from the integral
    assert out.times.size > 2 and np.all(out.norm_h ** 2 <= n_threshold)

    cum, expected = 0.0, rec.times[-1]
    for k in range(rec.times.size):
        if rec.norm_h[k] ** 2 > n_threshold or cum > n_threshold:
            expected = rec.times[k]
            break
        if k + 1 < rec.times.size:
            cum += rec.norm_v[k] ** beta * (rec.times[k + 1] - rec.times[k])
    assert tau == expected < rec.times[-1]


def test_jump_count_conserved_after_stopping(heat_spec):
    cfg = SolverConfig(dt=0.02, T=2.0, level=3)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, seed=6)
    real = sample_noise(3, 2.0, 0.02, heat_spec.bundle.mark_space, seed=6)
    assert rec.n_jump_entries == sum(1 for ev in real.jumps if ev.time <= 2.0)
    out, tau = apply_stopping(rec, StoppingTimeRule(N=0.2), beta=2.0)
    assert out.n_jump_entries == sum(1 for ev in real.jumps if ev.time <= tau)


def test_stopping_cuts_a_norms_only_record_as_the_full_one():
    # constant jumps lift ‖Y‖_H past N mid-path; one prefix cut serves both
    # records, and the norms-only one keeps no states
    triple, bundle, _ = make_pure_jump([0.5, 0.5])
    args = (bundle, triple, np.zeros(2), SolverConfig(dt=0.1, T=4.0, level=2), [3])
    full, norms_only = solve_paths(*args)[0], solve_paths(*args, keep_states=False)[0]
    rule = StoppingTimeRule(N=1.0)
    (want, tau_want), (got, tau) = apply_stopping(full, rule), apply_stopping(norms_only, rule)
    assert tau == tau_want and 1 < got.times.size < full.times.size and got.states is None
    assert want.states.shape == (want.times.size, 2) and got.stopped_at == tau
    for name in ("times", "is_jump_post", "is_grid", "norm_h", "norm_v"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_step_failure_annotates_truncation():
    # drift explodes in finite time and the Newton iteration caps out
    from levyspde.coefficients import CoefficientBundle
    from levyspde.spaces import GelfandTriple

    triple = GelfandTriple(dimension_cap=1, v_weights=np.ones(1))
    bundle = CoefficientBundle(
        drift=lambda t, u: u**2 * 1e8 + 1e8,
        diffusion=lambda t, u: np.zeros(u.shape + (1,)),
        jump=lambda t, u, z: np.zeros(u.shape),
        mark_space=MarkSpace.zero(),
    )
    cfg = SolverConfig(dt=0.1, T=1.0, level=1, newton_max_iter=8)
    rec = solve_path(bundle, triple, np.array([1.0]), cfg, seed=0)
    assert rec.truncated_at is not None


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T=1.0, level=1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, T=1.0, level=1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, level=1, scheme="magic")
    for iters in (0, -3, 2.9, True):  # the Newton solve needs at least one iteration
        with pytest.raises(ValueError, match="newton_max_iter"):
            SolverConfig(dt=0.1, T=1.0, level=1, newton_max_iter=iters)


def test_tamed_explicit_scheme_runs(allen_cahn_spec):
    cfg = SolverConfig(dt=1e-3, T=0.05, level=6, scheme="tamed_explicit")
    rec = solve_path(allen_cahn_spec.bundle, allen_cahn_spec.triple,
                     allen_cahn_spec.default_x0, cfg, seed=9)
    assert rec.truncated_at is None
    assert np.all(np.isfinite(rec.states))


def test_grid_view_excludes_pre_jump_rows_near_grid_times(heat_spec):
    # jumps at a grid time and 1e-13 before it: their pre-jump rows lie
    # within float tolerance of the grid but are not grid rows
    real = NoiseRealization(
        wiener=np.zeros((10, 2)),
        jumps=(JumpEvent(0.03 - 1e-13, 0), JumpEvent(0.03, 1)),
        seed=0, m=2, dt=0.01, T=0.1,
    )
    cfg = SolverConfig(dt=0.01, T=0.1, level=2)
    rec = solve_paths(heat_spec.bundle, heat_spec.triple, heat_spec.default_x0, cfg, [0],
                      noise=[real])[0]
    assert rec.n_jump_entries == 2
    times, states = rec.times[rec.is_grid], rec.states[rec.is_grid]
    np.testing.assert_array_equal(times, np.arange(11) * 0.01)
    np.testing.assert_array_equal(states[-1], rec.states[-1])
    # the grid row at 0.03 ends the step, after both jumps and the compensator
    np.testing.assert_array_equal(states[3], rec.states[7])


PATH_FIELDS = ("times", "is_jump_post", "is_grid", "norm_h", "norm_v", "truncated_at", "seed")


def _assert_same_record(got, want, states=True):
    for field in PATH_FIELDS + (("states",) if states else ()):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


@pytest.mark.parametrize(
    "model_id, scheme",
    [
        pytest.param("heat", "drift_implicit", id="heat"),
        pytest.param("grad_noise_linear", "drift_implicit", id="grad_noise_linear"),
        pytest.param("p_laplacian", "drift_implicit", id="p_laplacian"),
        pytest.param("allen_cahn", "drift_implicit", id="allen_cahn"),
        pytest.param("burgers1d", "drift_implicit", id="burgers1d"),
        pytest.param("allen_cahn", "tamed_explicit", id="allen_cahn-tamed_explicit"),
    ],
)
def test_batch_rows_equal_single_path_solves(model_id, scheme):
    # the Newton models solve their rows in one batch; p_laplacian also
    # evaluates the v_norm functional
    spec = builtin(model_id)
    cfg = SolverConfig(dt=0.01, T=1.0, level=5, scheme=scheme)  # 100 steps: two Wiener chunks
    seeds = [path_seed(3, i) for i in range(6)]
    args = (spec.bundle, spec.triple, spec.default_x0, cfg)
    batch = solve_paths(*args, seeds)
    norms_only = solve_paths(*args, seeds, keep_states=False)
    assert spec.bundle.mark_space.is_zero or sum(rec.n_jump_entries > 0 for rec in batch) >= 3
    for seed, rec, light in zip(seeds, batch, norms_only):
        reference = solve_path(*args, seed=seed)
        _assert_same_record(rec, reference)
        _assert_same_record(light, reference, states=False)
        assert light.states is None


@pytest.mark.parametrize("model_id", ["heat", "allen_cahn"])
@pytest.mark.parametrize("drawn", [True, False], ids=["drawn", "noise"])
def test_on_grid_blocks_are_the_kept_grid_states(model_id, drawn):
    # 40 rows step in Wiener chunks of 1024 // 40 = 25 steps; the hook sees
    # the initial rows, then each finished chunk, and the records keep norms
    spec = builtin(model_id)
    cfg = SolverConfig(dt=0.01, T=0.5, level=5)
    seeds = [path_seed(5, i) for i in range(40)]
    noise = {} if drawn else {
        "noise": [sample_noise(5, cfg.T, cfg.dt, spec.bundle.mark_space, s) for s in seeds]}
    args = (spec.bundle, spec.triple, spec.default_x0, cfg, seeds)
    blocks = []
    streamed = solve_paths(*args, on_grid=lambda k, block: blocks.append((k, block.copy())),
                           **noise)
    kept = solve_paths(*args, **noise)
    norms_only = solve_paths(*args, keep_states=False, **noise)
    assert [k for k, _ in blocks] == [0, 1, 26]
    assert [block.shape for _, block in blocks] == [(1, 40, 5), (25, 40, 5), (25, 40, 5)]
    states = np.concatenate([block for _, block in blocks])
    assert sum(rec.n_jump_entries > 0 for rec in kept) >= 10
    for p, (rec, full, light) in enumerate(zip(streamed, kept, norms_only)):
        assert full.truncated_at is None and rec.states is None
        np.testing.assert_array_equal(states[:, p], full.states[full.is_grid])
        _assert_same_record(rec, light, states=False)


def _stalling_bundle():
    # past u = 1.0100003 the implicit equation y - dt(-y + 1e8 (y-1)_+^2) = u
    # has no root at dt = 0.01
    marks = MarkSpace(marks=np.array([0.5]), weights=np.array([1.0]))
    return CoefficientBundle(
        drift=lambda t, u: -u + 1e8 * np.maximum(u - 1.0, 0.0) ** 2,
        diffusion=lambda t, u: 0.8 * u[..., None],
        jump=lambda t, u, z: z * u,
        mark_space=marks,
    )


def test_batch_newton_rows_truncate_independently():
    # a path whose drift solve has no root is truncated; the others go on
    bundle = _stalling_bundle()
    triple = GelfandTriple(dimension_cap=1, v_weights=np.ones(1))
    cfg = SolverConfig(dt=0.01, T=1.0, level=1, newton_max_iter=20)
    seeds = list(range(8))
    batch = solve_paths(bundle, triple, np.array([0.8]), cfg, seeds)
    truncated = [rec.truncated_at is not None for rec in batch]
    assert any(truncated) and not all(truncated)
    for seed, rec in zip(seeds, batch):
        _assert_same_record(rec, solve_path(bundle, triple, np.array([0.8]), cfg, seed=seed))


def test_non_finite_norm_truncates_the_record(heat_spec):
    cfg = SolverConfig(dt=0.1, T=1.0, level=2)
    rec = solve_path(heat_spec.bundle, heat_spec.triple, np.array([1e308, 1e308]), cfg, seed=0)
    assert rec.truncated_at == 0.0 and rec.times.size == 0
    rec = solve_path(heat_spec.bundle, heat_spec.triple, np.array([1e154, 0.0]), cfg, seed=0)
    assert rec.truncated_at is None and np.all(np.isfinite(rec.norm_v))


# ---------------------------------------------------------------------------
# batched damped Newton against a one-state oracle
# ---------------------------------------------------------------------------


def _oracle_fd_jacobian(bundle, y, t):
    m = y.size
    base = np.asarray(bundle.drift(t, y), dtype=float)
    h = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(y))
    moved = np.repeat(y[None, :], m, axis=0)
    moved[np.arange(m), np.arange(m)] += h
    return ((np.asarray(bundle.drift(t, moved), dtype=float) - base) / h[:, None]).T


def _oracle_newton(bundle, x, t_next, dt, config):
    """Damped Newton for y - dt A(t_next, y) = x on one state x (m,)."""
    m = x.size
    tol = config.newton_tol * (1.0 + float(np.linalg.norm(x)))

    def residual(y):
        return y - dt * np.asarray(bundle.drift(t_next, y), dtype=float) - x

    y = x.copy()
    f = residual(y)
    nf = float(np.linalg.norm(f))
    for it in range(config.newton_max_iter):
        if nf < tol:
            return y
        if bundle.drift_jacobian is not None:
            ja = np.asarray(bundle.drift_jacobian(t_next, y), dtype=float)
        else:
            ja = _oracle_fd_jacobian(bundle, y, t_next)
        jac = np.eye(m) - dt * ja
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -f, rcond=None)[0]
        s = 1.0
        for _ in range(30):
            y_trial = y + s * delta
            f_trial = residual(y_trial)
            nf_trial = float(np.linalg.norm(f_trial))
            if np.isfinite(nf_trial) and nf_trial < nf:
                break
            s *= 0.5
        else:
            raise StepFailure(time=t_next, residual=nf, iterations=it + 1)
        y, f, nf = y_trial, f_trial, nf_trial
    if nf < tol:
        return y
    raise StepFailure(time=t_next, residual=nf, iterations=config.newton_max_iter)


def _newton_case(name):
    """(bundle, rows (R, m), dt, config) of one oracle case."""
    rng = np.random.default_rng(17)
    # full_steps: every row takes every full Newton step; split: a row halves
    # its step while the others accept theirs
    scales = {"allen_cahn": [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
              "burgers1d": [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
              "full_steps": [0.1, 0.3, 0.5, 1.0, 2.0], "split": [0.2, 1.0, 3.0, 6.0]}
    if name in scales:
        spec = builtin("burgers1d" if name == "split" else "allen_cahn" if name == "full_steps" else name)
        m = 8
        scale = np.array(scales[name])[:, None]
        return spec.bundle, scale * rng.normal(size=(scale.size, m)), 0.05, SolverConfig(dt=0.05, T=1.0, level=m)
    if name == "fd_jacobian":
        bundle = CoefficientBundle(
            drift=lambda t, u: -(u**3) + u[..., ::-1] - np.sin(t * u),
            diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
            jump=lambda t, u, z: np.zeros(u.shape),
            mark_space=MarkSpace.zero(),
        )
        rows = np.array([0.3, 1.0, 3.0, 10.0])[:, None] * rng.normal(size=(4, 5))
        return bundle, rows, 0.1, SolverConfig(dt=0.1, T=1.0, level=5)
    if name == "singular":
        # I - dt J = I - diag(u) is singular at u_j = 1: least squares there
        bundle = CoefficientBundle(
            drift=lambda t, u: 5.0 * u**2,
            diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
            jump=lambda t, u, z: np.zeros(u.shape),
            mark_space=MarkSpace.zero(),
            drift_jacobian=lambda t, u: 10.0 * u[..., :, None] * np.eye(u.shape[-1]),
        )
        rows = np.array([[0.2, -0.3], [1.0, 0.1], [0.4, 0.45], [1.0, 1.0]])
        return bundle, rows, 0.1, SolverConfig(dt=0.1, T=1.0, level=2)
    rows = np.array([[0.8], [1.005], [1.0100002], [1.0100004], [1.02], [1.5], [np.nan], [0.99]])
    return _stalling_bundle(), rows, 0.01, SolverConfig(dt=0.01, T=1.0, level=1, newton_max_iter=20)


def _logged(bundle, log):
    """``bundle`` whose drift and Jacobian calls append ("f" or "J", rows) to ``log``."""
    jacobian = bundle.drift_jacobian
    return dataclasses.replace(
        bundle,
        drift=lambda t, u: log.append(("f", len(u))) or bundle.drift(t, u),
        drift_jacobian=None if jacobian is None else (
            lambda t, u: log.append(("J", len(u))) or jacobian(t, u)),
    )


def _line_searches(log):
    """The row counts of the drift calls that follow each Jacobian call of a
    ``_logged`` Newton solve: one list per line search."""
    searches = []
    for kind, rows in log:
        if kind == "J":
            searches.append([])
        elif searches:
            searches[-1].append(rows)
    return searches


@pytest.mark.parametrize("name", ["allen_cahn", "burgers1d", "fd_jacobian", "singular", "stalling",
                                  "full_steps", "split"])
def test_batch_newton_matches_one_state_oracle(name):
    bundle, rows, dt, cfg = _newton_case(name)
    log = []
    y, failed = _newton_rows(_logged(bundle, log), rows, 0.3 + dt, dt, cfg)
    searches = _line_searches(log)
    if name == "full_steps":
        # the whole batch iterates, and every search accepts its full step
        assert searches[0] == [len(rows)]
        assert all(len(calls) == 1 for calls in searches)
    if name == "split":
        # a search halves the step of some of its rows and accepts the rest
        assert any(0 < calls[1] < calls[0] for calls in searches if len(calls) > 1)
        assert not failed
    want_failed = {}
    for r, x in enumerate(rows):
        try:
            np.testing.assert_array_equal(y[r], _oracle_newton(bundle, x, 0.3 + dt, dt, cfg))
        except StepFailure as exc:
            want_failed[r] = exc
    assert sorted(failed) == sorted(want_failed)
    for r, exc in want_failed.items():
        got = failed[r]
        assert (got.time, got.iterations) == (exc.time, exc.iterations)
        np.testing.assert_array_equal(got.residual, exc.residual)
    assert len(failed) < len(rows)
    assert failed or name != "stalling"


def _time_newton_bundle(fd):
    """The time-dependent oracle's drift plus a cubic, -(1 + t) u - u³, so
    that Newton iterates; ``fd`` drops the Jacobian for finite differences."""
    _, bundle = make_time_dependent(level=4)

    def jacobian(t, u):
        return -(1.0 + np.asarray(t) + 3.0 * u**2)[..., :, None] * np.eye(u.shape[-1])

    return dataclasses.replace(
        bundle, drift=lambda t, u: -(1.0 + np.asarray(t)) * u - u**3,
        drift_jacobian=None if fd else jacobian, drift_implicit_solve=None,
    )


@pytest.mark.parametrize("name", ["allen_cahn", "time_dependent", "time_dependent-fd"])
def test_per_row_times_newton_matches_one_row_calls(name):
    # t_next of shape (R, 1): each row has the bits of its own scalar solve
    rng = np.random.default_rng(23)
    if name == "allen_cahn":
        bundle, rows, dt, cfg = _newton_case("allen_cahn")
    else:
        bundle = _time_newton_bundle(fd=name.endswith("-fd"))
        rows = np.array([0.1, 0.5, 1.0, 3.0, 6.0])[:, None] * rng.normal(size=(5, 4))
        dt, cfg = 0.1, SolverConfig(dt=0.1, T=1.0, level=4)
    t_next = rng.uniform(0.0, 2.0, size=(rows.shape[0], 1))
    y, failed = _newton_rows(bundle, rows, t_next, dt, cfg)
    assert not failed
    for r in range(rows.shape[0]):
        want, want_failed = _newton_rows(bundle, rows[r:r + 1], float(t_next[r, 0]), dt, cfg)
        assert not want_failed
        np.testing.assert_array_equal(y[r], want[0])


def test_per_row_times_newton_failure_carries_its_rows_time():
    bundle, rows, dt, cfg = _newton_case("stalling")
    t_next = 0.25 + 0.01 * np.arange(rows.shape[0], dtype=float)[:, None]
    y, failed = _newton_rows(bundle, rows, t_next, dt, cfg)
    assert failed and len(failed) < len(rows)
    for r in range(rows.shape[0]):
        want, want_failed = _newton_rows(bundle, rows[r:r + 1], float(t_next[r, 0]), dt, cfg)
        assert (r in failed) == bool(want_failed)
        if want_failed:
            got, exc = failed[r], want_failed[0]
            assert got.time == t_next[r, 0] == exc.time
            assert got.iterations == exc.iterations
            np.testing.assert_array_equal(got.residual, exc.residual)
        else:
            np.testing.assert_array_equal(y[r], want[0])


def test_any_subset_of_a_batch_keeps_each_rows_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spec = builtin("allen_cahn")
    cfg = SolverConfig(dt=0.01, T=0.1, level=6)
    base = spec.triple.project(spec.default_x0, 6).coeffs
    rows = np.array([0.5, 1.0, 2.0, -1.0, 4.0, 8.0])[:, None] * base
    seeds = [path_seed(9, i) for i in range(len(rows))]
    args = (spec.bundle, spec.triple)
    alone = [solve_path(*args, rows[i], cfg, seed=s) for i, s in enumerate(seeds)]

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(st.permutations(range(len(rows))), st.integers(1, len(rows)))
    def check(order, size):
        order = list(order[:size])
        batch = solve_paths(*args, rows[order], cfg, [seeds[i] for i in order])
        for i, rec in zip(order, batch):
            _assert_same_record(rec, alone[i])

    check()
