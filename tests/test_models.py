"""Model zoo wiring, constants, and validation regressions."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from levyspde.cli import main
from levyspde.coefficients import CoefficientBundle, admissible_p_range
from levyspde.config import ConfigError, parse_config
from levyspde.models import BUILTIN_IDS, SpectralGrid, builtin, from_config, resolve, validate
from levyspde.noise import MarkSpace
from levyspde.solver import SolverConfig, solve_path
from levyspde.spaces import GalerkinState

import serial_jacobians


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        builtin("navier_stokes_2d")


def test_heat_diagonal_action():
    spec = builtin("heat")
    np.testing.assert_allclose(spec.triple.v_weights[:4], [1.0, 4.0, 9.0, 16.0])
    e2 = np.eye(4)[1]
    out = spec.bundle.drift(0.0, e2)
    np.testing.assert_allclose(out, -4.0 * e2, rtol=1e-15)


def test_allen_cahn_drift_at_constant_state():
    # u = a constant on the grid: Laplacian vanishes, value is a - a^3
    spec = builtin("allen_cahn")
    a = 0.8
    coeffs = np.zeros(5)
    coeffs[0] = a  # first basis function is the constant 1
    out = spec.bundle.drift(0.0, coeffs)
    grid_vals = spec.grid.to_grid(out)
    np.testing.assert_allclose(grid_vals, a - a**3, rtol=1e-12)


def test_burgers_functionals_both_nonzero():
    spec = builtin("burgers1d")
    state = np.array([0.5, -0.2, 0.1, 0.0])
    assert spec.bundle.rho is not None and spec.bundle.eta is not None
    assert spec.bundle.rho(state) > 0.0
    assert spec.bundle.eta(state) > 0.0


def test_p_laplacian_v_norm_functional_by_quadrature():
    spec = builtin("p_laplacian")
    grid = spec.grid
    coeffs = np.zeros(6)
    coeffs[1] = 1.0  # sqrt(2) cos(2 pi x)
    state = coeffs
    vals = grid.to_grid(coeffs)
    g = grid.grad(vals)
    oracle = (grid.h * np.sum(np.abs(g) ** 4) + grid.h * np.sum(np.abs(vals) ** 4)) ** 0.25
    assert spec.bundle.v_norm(state) == pytest.approx(oracle, rel=1e-14)
    # coercivity pairing is exactly the negative fourth power of that norm
    pair = float(np.dot(spec.bundle.drift(0.0, state), coeffs))
    assert pair == pytest.approx(-oracle**4, rel=1e-12)


def test_grad_noise_prange_wiring():
    spec = builtin("grad_noise_linear", c_b=0.1, c_gamma=0.05)
    assert spec.constants.L_B == pytest.approx(0.01)
    assert spec.constants.L_gamma == pytest.approx(0.05**2 * 1.0)  # second mark moment is 1
    result = admissible_p_range(spec.constants)
    assert result.chi == 1.0
    assert not result.empty
    # growth bound at small p is 1 + (2 L_A + L_B) / (L_B + 2 L_gamma)
    first_bound = 1.0 + (2.0 + 0.01) / (0.01 + 2.0 * 0.0025)
    assert result.p_max >= min(first_bound, 3.0)


def test_part2_admissibility_checked_at_load():
    with pytest.raises(ValueError):
        builtin("grad_noise_linear", c_b=1.5, c_gamma=1.2)


@pytest.mark.parametrize("model_id", BUILTIN_IDS)
def test_every_builtin_passes_validation(model_id):
    # regression pin: samples = 1000, seed = 0
    spec = builtin(model_id)
    report = validate(spec, samples=1000, seed=0)
    failed = [e.name for e in report.entries if not e.passed]
    assert not failed, f"{model_id} failed {failed}"


def test_heat_noise_off_matches_exponential_decay():
    spec = builtin("heat", c_wiener=0.0, sigma_jump=0.0, marks=MarkSpace.zero())
    dt, T, m = 1e-3, 0.5, 2
    cfg = SolverConfig(dt=dt, T=T, level=m)
    rec = solve_path(spec.bundle, spec.triple, spec.default_x0, cfg, seed=0)
    w = spec.triple.v_weights[:m]
    exact = spec.default_x0[:m] * np.exp(-w * T)
    rel = np.abs(rec.states[-1] - exact) / np.abs(exact)
    assert np.all(rel <= 10.0 * dt)


def test_spectral_grid_roundtrip_exact():
    grid = SpectralGrid(64, 17)
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(9)
    back = grid.to_coeffs(grid.to_grid(coeffs), 9)
    np.testing.assert_allclose(back, coeffs, atol=1e-13)


def _roll_grad(grid, v, axis):
    return (np.roll(v, -1, axis) - v) / grid.h


def _roll_div_back(grid, v, axis):
    return (v - np.roll(v, 1, axis)) / grid.h


def _roll_d_centered(grid, v, axis):
    return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * grid.h)


@pytest.mark.parametrize("n, cap", [(16, 7), (64, 33)])
def test_gathered_stencils_equal_the_roll_formulas(n, cap):
    # the stencils gather their neighbours; np.roll gives the same bits
    grid = SpectralGrid(n, cap)
    rng = np.random.default_rng(n)
    cases = [(rng.standard_normal(n), -1), (rng.standard_normal((5, n)), -1),
             (rng.standard_normal((5, n, 3)), -2)]
    for v, axis in cases:
        for op, ref in ((grid.grad, _roll_grad), (grid.div_back, _roll_div_back),
                        (grid.d_centered, _roll_d_centered)):
            got = op(v, axis=axis)
            assert got.shape == v.shape
            assert got.tobytes() == ref(grid, v, axis).tobytes(), (op.__name__, v.shape)
    assert grid.dphi.tobytes() == _roll_d_centered(grid, grid.phi, 0).tobytes()
    assert grid.gphi.tobytes() == _roll_grad(grid, grid.phi, 0).tobytes()


def test_allen_cahn_cube_is_a_product_of_floats():
    # the cubic is vals * vals * vals, whose bits IEEE fixes on every
    # machine; numpy's vectorized power is not libm's and may differ
    spec = builtin("allen_cahn")
    grid, mu = spec.grid, spec.grid.mu
    m = 9
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, m)) * np.array([[0.1], [1.0], [10.0]])
    vals = grid.to_grid(u)
    cube = np.array([[v * v * v for v in row] for row in vals.tolist()])
    reference = (1.0 - mu[:m]) * u - grid.to_coeffs(cube, m)
    got = spec.bundle.drift(0.0, u)
    assert got.tobytes() == reference.tobytes()
    power = (1.0 - mu[:m]) * u - grid.to_coeffs(vals**3, m)
    assert np.max(np.abs(got - power) / np.max(np.abs(power), axis=-1, keepdims=True)) <= 1e-14


def test_spectral_grid_rejects_aliasing():
    with pytest.raises(ValueError):
        SpectralGrid(16, 16)


def test_custom_model_from_config():
    cfg = {
        "name": "custom_diag",
        "regime": "part1",
        "triple": {"dimension_cap": 4},
        "drift": {"type": "diagonal_spectrum", "values": [1.0, 2.0, 3.0, 4.0]},
        "diffusion": {"type": "multiplicative_h", "c": 0.1},
        "jump": {"type": "multiplicative_mark", "sigma": 0.2},
        "marks": {"points": [1.0, -0.5], "weights": [1.0, 2.0]},
        "constants": {"beta": 2.0, "g_integral": 0.01,
                      "h_p_integrals": {"2.0": 0.08}, "L_A": 0.25, "C_growth": 4.0},
        "x0": [1.0, 0.5, 0.25, 0.125],
    }
    spec = from_config(cfg)
    out = spec.bundle.drift(0.0, np.ones(3))
    np.testing.assert_allclose(out, [-1.0, -2.0, -3.0])
    report = validate(spec, samples=300, seed=0)
    assert report.passed(), [e.name for e in report.entries if not e.passed]


def test_custom_model_with_reaction_polynomial():
    cfg = {
        "name": "custom_reaction",
        "triple": {"dimension_cap": 9, "grid_size": 32},
        "drift": {"type": "diagonal", "scale": 1.0},
        "reaction": [0.0, 1.0, 0.0, -1.0],  # u - u^3 pointwise
        "constants": {"beta": 2.0, "f_integral": 2.0, "C_growth": 12.0,
                      "alpha": 4.0, "C_monotone": 12.0, "L_A": 1.0},
    }
    spec = from_config(cfg)
    coeffs = np.zeros(5)
    coeffs[0] = 0.5
    out = spec.bundle.drift(0.0, coeffs)
    vals = spec.grid.to_grid(out)
    # diagonal part: -w_1 * u = -1 * 0.5 constant; reaction: 0.5 - 0.125
    np.testing.assert_allclose(vals, -0.5 + 0.5 - 0.125, rtol=1e-12)


def test_reaction_requires_grid():
    with pytest.raises(ValueError):
        from_config({
            "name": "bad",
            "triple": {"dimension_cap": 4},
            "reaction": [0.0, 1.0],
            "constants": {"beta": 2.0},
        })


#: custom models for the protocol checks, with and without a grid reaction
CUSTOM_MODELS = {
    "custom_plain": {
        "name": "custom_plain",
        "triple": {"dimension_cap": 8},
        "drift": {"type": "diagonal", "scale": 1.0},
        "diffusion": {"type": "multiplicative_v", "c": 0.1},
        "jump": {"type": "multiplicative_v_mark", "sigma": 0.05},
        "marks": {"points": [1.0, -0.5], "weights": [1.0, 2.0]},
        "rho_const": 0.5,
        "constants": {"beta": 2.0},
    },
    "custom_reaction": {
        "name": "custom_reaction",
        "triple": {"dimension_cap": 9, "grid_size": 32},
        "reaction": [0.0, 1.0, 0.0, -1.0],
        "diffusion": {"type": "multiplicative_h", "c": 0.1},
        "jump": {"type": "multiplicative_mark", "sigma": 0.2},
        "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
        "constants": {"beta": 2.0},
    },
}


#: config records that declare the diagonal builtins' coefficients
BUILTIN_RECORDS = {
    "heat": {
        "name": "heat_record",
        "triple": {"dimension_cap": 48},
        "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
        "diffusion": {"type": "multiplicative_h", "c": 0.25},
        "jump": {"type": "multiplicative_mark", "sigma": 0.2},
        "constants": {"g_integral": 0.25**2, "h_p_integrals": {"2": 0.2**2, "4": 0.2**4},
                      "C_monotone": 1.0, "C_growth": 1.0, "L_A": 1.0},
    },
    "grad_noise_linear": {
        "name": "grad_noise_linear_record",
        "triple": {"dimension_cap": 32},
        "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
        "diffusion": {"type": "multiplicative_v", "c": 0.1},
        "jump": {"type": "multiplicative_v_mark", "sigma": 0.05},
        "constants": {"C_monotone": 1.0, "C_growth": 1.0, "L_A": 1.0, "L_B": 0.1**2,
                      "L_gamma": 0.05**2, "h_p_integrals": {"2": 0.0}},
        "regime": "part2",
    },
}


@pytest.mark.parametrize("model_id", tuple(BUILTIN_RECORDS))
def test_a_record_is_its_builtin(tmp_path, model_id):
    # a record that declares a diagonal builtin's coefficients is read by the
    # builtin's own builder, so its path and energy tables keep their bytes
    record = BUILTIN_RECORDS[model_id]
    assert from_config(record).constants == builtin(model_id).constants
    tables = []
    for model in (model_id, record):
        out = tmp_path / ("record" if isinstance(model, dict) else "builtin")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "schema_version": 1, "model": model, "solver": {"dt": 1e-3, "T": 0.5, "level": 16},
            "study": {"n_paths": 32}, "master_seed": 4, "output_dir": str(out)}))
        for command in ("simulate", "energy"):
            assert main([command, "--config", str(path), "--workers", "1"]) == 0
        tables.append([(out / name).read_bytes() for name in ("path.csv", "energy.csv")])
    assert tables[0] == tables[1]


def _model(model_id):
    return from_config(CUSTOM_MODELS[model_id]) if model_id in CUSTOM_MODELS else builtin(model_id)


def _assert_rows_are_single_calls(fn, u, row_shape):
    # a batch keeps its leading axes and gives each row its 1-D result
    batch = np.asarray(fn(u))
    assert batch.shape == u.shape[:-1] + row_shape
    flat = batch.reshape((-1,) + row_shape)
    for row, ref in zip(u.reshape(-1, u.shape[-1]), flat):
        np.testing.assert_array_equal(ref, np.asarray(fn(row)))
    return batch


@pytest.mark.parametrize("model_id", BUILTIN_IDS + tuple(CUSTOM_MODELS))
def test_fast_path_hooks_match_reference_forms(model_id):
    # every coefficient callable takes (..., m) arrays and gives each row
    # exactly its single-row result; the solver's closed-form hooks agree
    # with the audited matrix, the per-mark forms and the implicit equation
    spec = _model(model_id)
    bundle = spec.bundle
    marks = bundle.mark_space
    if model_id in CUSTOM_MODELS:
        # a record's multiplicative families bring their closed forms
        assert bundle.diffusion_matvec is not None and bundle.jump_weighted_sum is not None
    rng = np.random.default_rng(77)
    m = 6
    for _ in range(10):
        u = rng.standard_normal((3, m)) * rng.choice([0.1, 1.0, 10.0], size=(3, 1))
        dw = rng.standard_normal((3, m))
        for batch in (u, u.reshape(3, 1, m)):
            _assert_rows_are_single_calls(lambda x: bundle.drift(0.3, x), batch, (m,))
            _assert_rows_are_single_calls(lambda x: bundle.drift_jacobian(0.3, x), batch, (m, m))
            _assert_rows_are_single_calls(lambda x: bundle.diffusion(0.3, x), batch, (m, m))
            for z in marks.marks if not marks.is_zero else [1.0]:
                _assert_rows_are_single_calls(lambda x: bundle.jump(0.3, x, float(z)), batch, (m,))
            for functional in (bundle.rho, bundle.eta, bundle.v_norm):
                if functional is not None:
                    _assert_rows_are_single_calls(functional, batch, ())
        if bundle.jump_weighted_sum is not None:
            _assert_rows_are_single_calls(lambda x: bundle.jump_weighted_sum(0.3, x), u, (m,))
        batch = bundle.apply_diffusion(0.3, u, dw)
        assert batch.shape == u.shape
        density = None if marks.is_zero else bundle.compensator_density(0.3, u)
        for p in range(3):
            reference = np.asarray(bundle.diffusion(0.3, u[p])) @ dw[p]
            np.testing.assert_allclose(batch[p], reference, atol=1e-13, rtol=1e-13)
            np.testing.assert_array_equal(batch[p], bundle.apply_diffusion(0.3, u[p], dw[p]))
            if density is not None:
                loop = sum(
                    lam * np.asarray(bundle.jump(0.3, u[p], float(z)))
                    for z, lam in zip(marks.marks, marks.weights)
                )
                np.testing.assert_allclose(density[p], loop, atol=1e-13, rtol=1e-13)
                np.testing.assert_array_equal(density[p], bundle.compensator_density(0.3, u[p]))
        if bundle.drift_implicit_solve is not None:
            dt = 0.01
            y = bundle.drift_implicit_solve(0.3, u, dt)
            assert y.shape == u.shape
            for p in range(3):
                a = np.asarray(bundle.drift(0.3, y[p]))
                np.testing.assert_allclose(y[p] - dt * a, u[p], atol=1e-12, rtol=1e-12)
                np.testing.assert_array_equal(y[p], bundle.drift_implicit_solve(0.3, u[p], dt))
    # 96-row and 2-D batches keep each Jacobian row's bits too, at the
    # smallest levels, an odd one and the grid models' cap
    for m in (1, 2, 3, 9, 33):
        if m <= spec.triple.dimension_cap:
            u = rng.standard_normal((96, m)) * rng.choice([0.1, 1.0, 10.0], size=(96, 1))
            for batch in (u, u[:12].reshape(3, 4, m)):
                _assert_rows_are_single_calls(lambda x: bundle.drift_jacobian(0.3, x), batch, (m, m))


#: a quartic reaction on the builtins' grid, so that its levels reach 33
REACTION_CAP33 = {"name": "reaction_cap33", "triple": {"dimension_cap": 33, "grid_size": 64},
                  "reaction": [0.5, 1.0, -0.3, -1.0, 0.2], "constants": {"beta": 2.0}}
#: the grid models whose Jacobian is a table contraction: a builder, the
#: reference broadcast form, and whether the Jacobian is a Gram form
GRID_JACOBIANS = {
    "allen_cahn": (lambda: builtin("allen_cahn"),
                   lambda spec, u: serial_jacobians.allen_cahn(spec.grid, u), True),
    "burgers1d": (lambda: builtin("burgers1d"),
                  lambda spec, u: serial_jacobians.burgers1d(spec.grid, u, nu=0.1), False),
    "p_laplacian": (lambda: builtin("p_laplacian"),
                    lambda spec, u: serial_jacobians.p_laplacian(spec.grid, u, p=4.0), True),
    "reaction": (lambda: from_config(REACTION_CAP33),
                 lambda spec, u: serial_jacobians.reaction(
                     spec.grid, spec.triple.v_weights, REACTION_CAP33["reaction"], u), True),
}


@pytest.mark.parametrize("model_id", GRID_JACOBIANS)
def test_grid_jacobians_are_derivatives(model_id):
    # the contraction is the drift's derivative (central differences), it
    # equals the broadcast form to rounding, and a Gram form is symmetric
    make, reference, gram = GRID_JACOBIANS[model_id]
    spec = make()
    drift = spec.bundle.drift
    rng = np.random.default_rng(31)
    for m in (1, 5, 8, 17, spec.triple.dimension_cap):
        u = rng.standard_normal((4, m)) * np.array([[0.1], [0.5], [1.0], [3.0]])
        jac = spec.bundle.drift_jacobian(0.3, u)
        want = reference(spec, u)
        assert np.max(np.abs(jac - want)) <= 1e-13 * np.max(np.abs(want))
        if gram:
            np.testing.assert_array_equal(jac, np.swapaxes(jac, -1, -2))
        for row, jac_row in zip(u, jac):
            step = 1e-6 * (1.0 + np.max(np.abs(row)))
            moved = row + step * np.eye(m)[:, None, :] * np.array([1.0, -1.0])[:, None]
            plus, minus = np.moveaxis(drift(0.3, moved), 1, 0)
            central = ((plus - minus) / (2.0 * step)).T  # column j: the move along e_j
            scale = np.max(np.abs(jac_row))
            np.testing.assert_allclose(jac_row, central, rtol=1e-6, atol=1e-6 * scale)


def test_allen_cahn_jacobian_holds_no_batch_temporary():
    # a 96-row Jacobian at level 8 needs its (96, n) weights and its
    # (96, m, m) result, 48 KiB each; the broadcast form's (96, m, n)
    # product alone took 384 KiB
    import tracemalloc

    spec = builtin("allen_cahn")
    u = np.random.default_rng(3).standard_normal((96, 8))
    spec.bundle.drift_jacobian(0.3, u)  # the level's table is built once, here
    tracemalloc.start()
    try:
        spec.bundle.drift_jacobian(0.3, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024


def test_bench_tracer_wraps_names_that_exist(monkeypatch):
    # bench/tracer.py wraps these by name, so a rename would silently drop
    # their spans from a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    loader = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    fields = {f.name for f in dataclasses.fields(CoefficientBundle) if f.init}
    assert set(tracer.BUNDLE_CALLABLES) <= fields
    assert "__post_init__" in vars(GalerkinState)
    # bench/child.py wraps solve_path; the tracer wraps the rest
    from levyspde import cli, config, models, noise, parallel, solver

    assert inspect.isfunction(solver.solve_path)
    assert list(inspect.signature(parallel.map_indexed).parameters) == ["fn", "ctx", "n", "workers"]
    for fn in (models.resolve, models.validate, noise.sample_noise, cli.main, config.load_config):
        assert inspect.isfunction(fn), fn
    report = validate(builtin("heat"), samples=8, seed=0)
    assert report.entries[0].samples_used == 8
    # the tracer charges each batch task to the layer of the callable
    # map_indexed receives and names its span by it, so each study's callable
    # carries its own module and name
    from levyspde import estimates, wellposedness

    received = []
    run_tasks = parallel.map_indexed
    monkeypatch.setattr(parallel, "map_indexed", lambda fn, ctx, n, workers=1:
                        received.append(fn) or run_tasks(fn, ctx, n, workers))
    spec = builtin("heat")
    args = (spec.bundle, spec.triple, spec.default_x0)
    cfg = SolverConfig(dt=0.05, T=0.2, level=2)
    x0_b = spec.default_x0 + 0.1
    for module, study in (
        (estimates, lambda: estimates.energy_table(*args, [2.0], [cfg], 2, 0)),
        (estimates, lambda: estimates.residual_totals(
            *args, [cfg, dataclasses.replace(cfg, dt=0.025)], 2, 0)),
        (estimates, lambda: estimates.modulus_study(*args, cfg, [0.05, 0.1], 2.0, 2, 0)),
        (wellposedness, lambda: wellposedness.uniqueness_sups(*args, cfg, 2, 0)),
        (wellposedness, lambda: wellposedness.weighted_stability_mc(
            spec.bundle, spec.triple, spec.constants, spec.default_x0, x0_b, cfg, 2, 0)),
        (wellposedness, lambda: wellposedness.continuous_dependence_study(
            *args, [0.1, 0.01], 2.0, cfg, 2, 0)),
        (wellposedness, lambda: wellposedness.galerkin_convergence(*args, [1, 2], cfg, 2, 0)),
    ):
        study()
        assert received[-1].__module__ == module.__name__
    assert len(received) == len({fn.__name__ for fn in received}) == 7


def test_every_public_name_resolves():
    # the tracer skips a stale ``__all__`` name without a warning
    import levyspde

    modules = [levyspde] + [
        importlib.import_module(f"levyspde.{path.stem}")
        for path in Path(levyspde.__file__).parent.glob("*.py")
        if path.stem != "__init__"
    ]
    missing = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def test_custom_triple_follows_the_weight_rule():
    model = {"name": "ruled", "triple": {"dimension_cap": 4, "rule": "affine", "scale": 2},
             "constants": {"beta": 2.0}}
    np.testing.assert_array_equal(from_config(model).triple.v_weights, [3.0, 9.0, 19.0, 33.0])
    model["triple"]["rule"] = "bogus"
    with pytest.raises(ConfigError) as err:
        parse_config({"schema_version": 1, "model": model,
                      "solver": {"dt": 0.1, "T": 1.0, "level": 2}})
    assert err.value.field_name == "model.triple.rule"


#: a custom model with noise of both kinds, to put one bad field in
_FIELD_MODEL = {"name": "fields", "triple": {"dimension_cap": 8},
                "drift": {"type": "diagonal", "scale": 1.0},
                "diffusion": {"type": "multiplicative_h", "c": 0.1},
                "jump": {"type": "multiplicative_mark", "sigma": 0.1},
                "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
                "constants": {"beta": 2.0}}


@pytest.mark.parametrize(
    "part, key, value, field",
    [("triple", "dimension_cap", 8.7, "model.triple.dimension_cap"),
     ("triple", "dimension_cap", "8", "model.triple.dimension_cap"),
     ("triple", "grid_size", 16.9, "model.triple.grid_size"),
     ("diffusion", "c", "0.1", "model.diffusion.c"),
     ("jump", "sigma", "0.1", "model.jump.sigma"),
     ("drift", "scale", "1", "model.drift.scale"),
     ("constants", "beta", "3", "model.constants.beta"),
     ("constants", "f_profile", 1.0, "model.constants.f_profile"),
     ("triple", "dimension_cap", 0, "model.triple"),
     ("triple", None, {"dimension_cap": 0, "grid_size": 16}, "model.triple"),
     ("triple", None, {"dimension_cap": -2, "grid_size": 16}, "model.triple"),
     ("triple", "grid_size", 8, "model.triple"),
     ("marks", "weights", [0.5], "model.marks"),
     ("constants", "beta", 1.0, "model.constants"),
     ("regime", None, "part3", "model.regime"),
     ("triple", "weigths", [1.0] * 8, "model.triple.weigths"),
     ("triple", None, {"dimension_cap": 8, "grid_size": 32, "rule": "affine"}, "model.triple.rule"),
     ("drift", "values", [1.0] * 8, "model.drift.values"),
     ("diffusion", "sigma", 0.1, "model.diffusion.sigma"),
     ("jump", "c", 0.1, "model.jump.c"),
     ("marks", "point", [1.0], "model.marks.point")],
    ids=["fractional-cap", "text-cap", "fractional-grid_size", "text-c", "text-sigma",
         "text-scale", "text-beta", "unknown-constant", "zero-cap", "zero-cap-on-a-grid",
         "negative-cap-on-a-grid", "grid-too-coarse", "short-weights", "beta-one",
         "unknown-regime", "misspelled-weights", "weight-rule-on-a-grid", "values-of-a-scaled-drift",
         "sigma-of-a-diffusion", "c-of-a-jump", "misspelled-points"],
)
def test_custom_model_field_names_its_field(part, key, value, field):
    # every model value follows the one type rule: a fraction is not an
    # integer, text is not a number, and no constant is made up; a range
    # error names the record it was read from (key None replaces the record);
    # a key that the record or its type does not read names itself
    record = value if key is None else dict(_FIELD_MODEL[part], **{key: value})
    model = dict(_FIELD_MODEL, **{part: record})
    with pytest.raises(ConfigError) as err:
        parse_config({"schema_version": 1, "model": model,
                      "solver": {"dt": 0.1, "T": 1.0, "level": 2}})
    assert err.value.field_name == field


def test_resolve_dispatch():
    assert resolve("heat").id == "heat"
    spec = resolve("allen_cahn")
    assert resolve(spec) is spec
    with pytest.raises(TypeError):
        resolve(42)
