"""Model zoo wiring, constants, and validation regressions."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from levyspde.coefficients import CoefficientBundle, admissible_p_range
from levyspde.config import ConfigError, parse_config
from levyspde.models import BUILTIN_IDS, SpectralGrid, builtin, from_config, resolve, validate
from levyspde.noise import MarkSpace
from levyspde.solver import SolverConfig, solve_path
from levyspde.spaces import GalerkinState


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
    rec = solve_path(spec.bundle, spec.triple, spec.default_x0, cfg, MarkSpace.zero(), seed=0)
    w = spec.triple.v_weights[:m]
    exact = spec.default_x0[:m] * np.exp(-w * T)
    rel = np.abs(rec.final_state() - exact) / np.abs(exact)
    assert np.all(rel <= 10.0 * dt)


def test_spectral_grid_roundtrip_exact():
    grid = SpectralGrid(64, 17)
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(9)
    back = grid.to_coeffs(grid.to_grid(coeffs), 9)
    np.testing.assert_allclose(back, coeffs, atol=1e-13)


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


def test_bench_tracer_wraps_names_that_exist():
    # bench/tracer.py wraps these by name, so a rename would silently drop
    # their spans from a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    loader = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    fields = {f.name for f in dataclasses.fields(CoefficientBundle) if f.init}
    assert set(tracer.BUNDLE_CALLABLES) <= fields
    assert "__post_init__" in vars(GalerkinState)


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
    assert err.value.field_name == "model"


def test_resolve_dispatch():
    assert resolve("heat").id == "heat"
    spec = resolve("allen_cahn")
    assert resolve(spec) is spec
    with pytest.raises(TypeError):
        resolve(42)
