"""Triple realization: projection, norms, pairing."""

import numpy as np
import pytest

from levyspde.coefficients import CoefficientBundle
from levyspde.noise import MarkSpace
from levyspde.solver import SolverConfig, solve_path
from levyspde.spaces import GalerkinState, GelfandTriple, libm_pow, triple_from_config


@pytest.fixture
def triple():
    return GelfandTriple(dimension_cap=8, v_weights=np.arange(1, 9, dtype=float) ** 2)


def _norm_h(u):
    return float(np.sqrt(np.dot(u, u)))


def _recorded_norms(triple, u):
    """(‖u‖_H, ‖u‖_V) as a path record holds them for its initial state u."""
    zero = CoefficientBundle(
        drift=lambda t, x: np.zeros(x.shape),
        diffusion=lambda t, x: np.zeros(x.shape + x.shape[-1:]),
        jump=lambda t, x, z: np.zeros(x.shape),
        mark_space=MarkSpace.zero(),
    )
    cfg = SolverConfig(dt=0.5, T=1.0, level=len(u))
    rec = solve_path(zero, triple, u, cfg, seed=0)
    return float(rec.norm_h[0]), float(rec.norm_v[0])


def test_project_truncates_coordinates(triple):
    state = triple.project([3.0, 4.0, 5.0], 2)
    assert state.level == 2
    np.testing.assert_array_equal(state.coeffs, [3.0, 4.0])


def test_project_first_mode_keeps_h_norm(triple):
    u = np.zeros(8)
    u[0] = 1.0
    state = triple.project(u, 1)
    assert _norm_h(state.coeffs) == _norm_h(u) == 1.0


def test_project_idempotent_and_contractive(triple):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(8)
    once = triple.project(u, 5)
    twice = triple.project(once.coeffs, 5)
    np.testing.assert_array_equal(once.coeffs, twice.coeffs)
    assert _norm_h(once.coeffs) <= _norm_h(u)


def test_projected_h_norm_matches_direct_summation(triple):
    # oracle: brute-force coordinate sum
    rng = np.random.default_rng(11)
    u = rng.standard_normal(8)
    state = triple.project(u, 5)
    expected = sum(u[j] ** 2 for j in range(5))
    assert _norm_h(state.coeffs) ** 2 == pytest.approx(expected, rel=1e-14)


def test_project_level_bounds(triple):
    with pytest.raises(ValueError):
        triple.project(np.ones(8), 0)
    with pytest.raises(ValueError):
        triple.project(np.ones(8), 9)


def test_norms_formula_oracle():
    triple = GelfandTriple(dimension_cap=2, v_weights=np.array([1.0, 4.0]))
    h, v = _recorded_norms(triple, np.array([1.0, 1.0]))
    assert h == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert v == pytest.approx(np.sqrt(5.0), rel=1e-15)


def test_norms_zero_vector(triple):
    assert _recorded_norms(triple, np.zeros(4)) == (0.0, 0.0)


def test_unit_weights_collapse_the_three_norms():
    # degenerate H = V weighting, allowed only in tests
    flat = GelfandTriple(dimension_cap=5, v_weights=np.ones(5))
    h, v = _recorded_norms(flat, np.array([0.3, -1.2, 4.0, 0.0, 2.5]))
    assert h == v


def test_norm_ordering_random_states(triple):
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        h, v = _recorded_norms(triple, rng.standard_normal(m) * rng.choice([0.1, 1.0, 10.0]))
        assert h <= v * (1 + 1e-12)


def test_projection_telescoping(triple):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(8)
    for m, m2 in [(2, 5), (1, 8), (3, 4)]:
        pm = np.zeros(8)
        pm[:m] = triple.project(u, m).coeffs
        pm2 = np.zeros(8)
        pm2[:m2] = triple.project(u, m2).coeffs
        gap = _norm_h(pm - pm2) ** 2
        expected = sum(u[j] ** 2 for j in range(m, m2))
        assert gap == pytest.approx(expected, abs=1e-14)


def test_pairing_projection_adjoint(triple):
    rng = np.random.default_rng(13)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    for m in (1, 3, 6):
        pa = np.zeros(8)
        pa[:m] = triple.project(a, m).coeffs
        pb = np.zeros(8)
        pb[:m] = triple.project(b, m).coeffs
        assert np.dot(pa, b) == pytest.approx(np.dot(a, pb), rel=1e-13, abs=1e-13)


def test_weight_validation():
    with pytest.raises(ValueError):
        GelfandTriple(dimension_cap=3, v_weights=np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        GelfandTriple(dimension_cap=3, v_weights=np.array([4.0, 2.0, 8.0]))


def test_state_validation():
    with pytest.raises(ValueError):
        GalerkinState(level=2, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        GalerkinState(level=1, coeffs=np.array([np.inf]))


def test_triple_from_config_rules():
    t = triple_from_config({"dimension_cap": 4, "rule": "quadratic", "name": "q"})
    np.testing.assert_allclose(t.v_weights, [1.0, 4.0, 9.0, 16.0])
    t2 = triple_from_config({"dimension_cap": 3, "weights": [1.0, 2.0, 10.0]})
    np.testing.assert_array_equal(t2.v_weights, [1.0, 2.0, 10.0])
    with pytest.raises(ValueError):
        triple_from_config({"dimension_cap": 3, "rule": "unknown"})


def test_libm_pow_overflows_to_signed_inf_as_c_pow():
    # a float's ** raises OverflowError where C pow returns ±inf; the finite
    # elements keep the ** bits
    x = np.array([[2.0, 1e200], [-1e200, -1e-200]])
    for e in (3.0, 2.0, -3.0):
        with np.errstate(over="ignore", divide="ignore"):
            want = np.power(x, e)
        got = libm_pow(x, e)
        np.testing.assert_array_equal(got, want)
        assert got[0, 0] == 2.0**e
