"""Hypothesis auditors and the admissibility constants arithmetic."""

import dataclasses
import math

import numpy as np
import pytest

from levyspde.coefficients import (
    AUDIT_BATCH_ROWS,
    HypothesisConstants,
    admissible_p_range,
    audit_coercivity_growth,
    audit_hemicontinuity,
    audit_local_monotonicity,
    audit_sequential_continuity,
    c1_of,
    c2_of,
    chi_exponent,
    coercivity_terms,
    diffusion_growth_terms,
    hemicontinuity_jump_estimate,
    jump_growth_terms,
    local_monotonicity_terms,
)
from levyspde.coefficients import _sample_states, _time_grid
from levyspde.models import BUILTIN_IDS, ModelSpec, builtin, from_config, validate

import serial_audits
from conftest import (
    make_scalar_linear,
    make_time_dependent,
    misdeclared_beta_constants,
    step_discontinuous_bundle,
)


# ---------------------------------------------------------------------------
# hemicontinuity
# ---------------------------------------------------------------------------


def test_hemicontinuity_linear_scan_is_flat(heat_spec):
    rng = np.random.default_rng(0)
    u, v, w = (rng.standard_normal(6) for _ in range(3))
    jump, _, _ = hemicontinuity_jump_estimate(heat_spec.bundle, heat_spec.triple, 0.0, u, v, w)
    assert jump <= 1e-10


def test_hemicontinuity_cubic_matches_polynomial_oracle(allen_cahn_spec):
    # the pairing along the segment is a cubic in s; fit on 4 nodes and
    # compare against fresh evaluations
    bundle, triple = allen_cahn_spec.bundle, allen_cahn_spec.triple
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    w = rng.standard_normal(6)

    def f(s):
        return float(np.dot(bundle.drift(0.0, u + s * v), w))

    nodes = np.array([-1.0, 0.0, 0.5, 1.5])
    coeffs = np.polyfit(nodes, [f(s) for s in nodes], 3)
    for s in np.linspace(-1.0, 1.5, 23):
        assert f(s) == pytest.approx(float(np.polyval(coeffs, s)), rel=1e-9, abs=1e-9)

    entry = audit_hemicontinuity(bundle, triple, samples=256, seed=0)
    assert entry.passed


def test_hemicontinuity_detects_planted_step(heat_spec):
    bad = step_discontinuous_bundle(heat_spec)
    entry = audit_hemicontinuity(bad, heat_spec.triple, samples=1000, seed=0)
    assert not entry.passed
    # the witness localizes the crossing of the planted hyperplane
    s = entry.witness["s"]
    u = np.array(entry.witness["u"])
    v = np.array(entry.witness["v"])
    assert abs(u[0] + s * v[0]) <= 0.05 * max(1.0, abs(v[0]))


def test_hemicontinuity_rejects_nonfinite(heat_spec):
    bundle = dataclasses.replace(
        heat_spec.bundle,
        drift=lambda t, u: np.full(u.shape, np.nan),
        drift_implicit_solve=None,
        drift_jacobian=None,
    )
    entry = audit_hemicontinuity(bundle, heat_spec.triple, samples=64, seed=0)
    assert entry.name == "H1" and not entry.passed and math.isnan(entry.worst_margin)
    assert entry.tolerance == 0.0 and entry.witness["coefficient"] == "drift"


# ---------------------------------------------------------------------------
# local monotonicity
# ---------------------------------------------------------------------------


def test_monotonicity_coincident_pair_margin_nonnegative(heat_spec):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(5)
    lhs, rhs = local_monotonicity_terms(
        heat_spec.bundle, heat_spec.constants, heat_spec.triple, "H2", 0.0, u, u.copy()
    )
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs >= 0.0


def test_monotonicity_linear_dissipative_quadratic_form_oracle():
    # A = -L u with B = gamma = 0: LHS = -2 <L(u-v), u-v> <= 0
    triple, bundle, constants = make_scalar_linear(mu=3.0, sigma=0.0)
    constants = dataclasses.replace(constants, g_integral=0.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u, v = rng.standard_normal(1), rng.standard_normal(1)
        lhs, rhs = local_monotonicity_terms(bundle, constants, triple, "H2", 0.0, u, v)
        oracle = -2.0 * 3.0 * float((u[0] - v[0]) ** 2)
        assert lhs == pytest.approx(oracle, rel=1e-13, abs=1e-13)
        assert rhs == 0.0
        assert lhs <= 0.0


def test_monotonicity_burgers_ball_of_radius_five():
    # declared rho/eta dominate the transport defect on a V-ball
    spec = builtin("burgers1d")
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(1000):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        for vec in (u, v):
            vn = spec.bundle.v_norm_of(spec.triple, vec)
            vec *= rng.uniform(0.1, 5.0) / vn
        lhs, rhs = local_monotonicity_terms(
            spec.bundle, spec.constants, spec.triple, "H2", 0.0, u, v
        )
        worst = min(worst, rhs - lhs)
    assert worst >= -1e-9


def test_monotonicity_h2prime_margin_symmetry(allen_cahn_spec):
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    l1, r1 = local_monotonicity_terms(
        allen_cahn_spec.bundle, allen_cahn_spec.constants, allen_cahn_spec.triple,
        "H2prime", 0.2, u, v,
    )
    l2, r2 = local_monotonicity_terms(
        allen_cahn_spec.bundle, allen_cahn_spec.constants, allen_cahn_spec.triple,
        "H2prime", 0.2, v, u,
    )
    assert (r1 - l1) == pytest.approx(r2 - l2, rel=1e-12, abs=1e-12)


def test_monotonicity_h2prime_lhs_quadratic_scaling():
    triple, bundle, constants = make_scalar_linear(mu=1.5, sigma=0.0)
    u, v = np.array([0.8]), np.array([-0.4])
    base_lhs, _ = local_monotonicity_terms(bundle, constants, triple, "H2prime", 0.0, u, v)
    for c in (2.0, 5.0, 11.0):
        lhs, _ = local_monotonicity_terms(bundle, constants, triple, "H2prime", 0.0, c * u, c * v)
        assert lhs == pytest.approx(c**2 * base_lhs, rel=1e-10)


def test_monotonicity_requires_declared_functionals(heat_spec):
    bundle = dataclasses.replace(heat_spec.bundle, rho=None, eta=None)
    with pytest.raises(ValueError):
        audit_local_monotonicity(bundle, heat_spec.constants, heat_spec.triple, "H2", 16, 0)
    bundle2 = dataclasses.replace(heat_spec.bundle, local_bound=None)
    with pytest.raises(ValueError):
        audit_local_monotonicity(bundle2, heat_spec.constants, heat_spec.triple, "H2prime", 16, 0)


def test_monotonicity_audit_passes_zoo_pair(heat_spec, allen_cahn_spec):
    for spec in (heat_spec, allen_cahn_spec):
        entry = audit_local_monotonicity(
            spec.bundle, spec.constants, spec.triple, "H2", samples=300, seed=0
        )
        assert entry.passed, entry.witness


def test_monotonicity_h2prime_audit_passes(heat_spec, allen_cahn_spec):
    # the ball-radius form with the models' declared M_t(r)
    for spec in (heat_spec, allen_cahn_spec):
        entry = audit_local_monotonicity(
            spec.bundle, spec.constants, spec.triple, "H2prime", samples=300, seed=0
        )
        assert entry.name == "H2prime" and entry.passed, entry.witness


def test_audit_sampling_batch_independent(heat_spec):
    # per-sample stream derivation: a prefix of a larger batch coincides
    # with the smaller batch
    from levyspde.coefficients import _sample_states

    small = _sample_states(heat_spec.triple, 4, seed=5, name="H2", count=8)
    large = _sample_states(heat_spec.triple, 4, seed=5, name="H2", count=32)
    for a, b in zip(small, large):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# coercivity / growth
# ---------------------------------------------------------------------------


def test_heat_coercivity_identity_quadrature(heat_spec):
    # 2 <A u, u> = -2 ‖u‖_V² exactly for the diagonal drift
    rng = np.random.default_rng(8)
    for _ in range(25):
        u = rng.standard_normal(7) * rng.choice([0.1, 1.0, 10.0])
        pair = 2.0 * float(np.dot(heat_spec.bundle.drift(0.0, u), u))
        assert pair == pytest.approx(-2.0 * heat_spec.bundle.v_norm_of(heat_spec.triple, u) ** 2, rel=1e-12)
        lhs, rhs = coercivity_terms(heat_spec.bundle, heat_spec.constants, heat_spec.triple, 0.0, u)
        assert rhs - lhs >= -1e-9 * (1 + abs(lhs) + abs(rhs))


def test_zero_noise_growth_margins_equal_rhs():
    # B = 0 and gamma = 0 make the growth margins exactly the RHS values
    triple, bundle, constants = make_scalar_linear(mu=1.0, sigma=0.0)
    constants = dataclasses.replace(
        constants, g_integral=0.3, h_p_integrals={2.0: 0.7}
    )
    u = np.array([1.3])
    lhs_b, rhs_b = diffusion_growth_terms(bundle, constants, triple, "I", 0.0, u)
    assert lhs_b == 0.0
    assert rhs_b == pytest.approx(0.3 * (1.0 + 1.3**2), rel=1e-14)
    lhs_g, rhs_g = jump_growth_terms(bundle, constants, triple, "I", 2.0, 0.0, u)
    assert lhs_g == 0.0
    assert rhs_g == pytest.approx(0.7 * (1.0 + 1.3**2), rel=1e-14)


def test_gradient_noise_hilbert_schmidt_column_sum_oracle():
    spec = builtin("grad_noise_linear", c_b=0.1)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(6)
    b = spec.bundle.diffusion(0.0, u)
    hs_by_columns = sum(float(np.dot(b[:, j], b[:, j])) for j in range(6))
    assert hs_by_columns == pytest.approx(0.01 * spec.bundle.v_norm_of(spec.triple, u) ** 2, rel=1e-12)

    # declared L_B >= c_b² passes, an under-declared constant fails
    good = audit_coercivity_growth(spec.bundle, spec.constants, spec.triple, "II", 200, 0)
    assert next(e for e in good if e.name == "H5star").passed
    lying = dataclasses.replace(spec.constants, L_B=0.5 * 0.01)
    bad = audit_coercivity_growth(spec.bundle, lying, spec.triple, "II", 200, 0)
    assert not next(e for e in bad if e.name == "H5star").passed


def test_misdeclared_beta_is_detected(heat_spec):
    entries = audit_coercivity_growth(
        heat_spec.bundle, misdeclared_beta_constants(heat_spec), heat_spec.triple, "I", 1000, 0
    )
    assert not next(e for e in entries if e.name == "H3").passed


# ---------------------------------------------------------------------------
# batched scans against the serial reference
# ---------------------------------------------------------------------------

#: custom models with declared constants, one diagonal and one with a reaction
AUDIT_CUSTOM_MODELS = {
    "custom_plain": {
        "name": "custom_plain",
        "triple": {"dimension_cap": 5},
        "drift": {"type": "diagonal", "scale": 1.0},
        "diffusion": {"type": "multiplicative_h", "c": 0.1},
        "jump": {"type": "multiplicative_mark", "sigma": 0.1},
        "marks": {"points": [1.0, -1.0], "weights": [0.5, 0.5]},
        "constants": {"beta": 2.0, "g_integral": 0.01, "L_A": 1.0, "C_growth": 1.0,
                      "C_monotone": 1.0, "h_p_integrals": {"2": 0.01}},
    },
    "custom_reaction": {
        "name": "custom_reaction",
        "triple": {"dimension_cap": 8, "grid_size": 32},
        "drift": {"type": "diagonal", "scale": 1.0},
        "reaction": [0.0, 1.0, 0.0, -1.0],
        "diffusion": {"type": "multiplicative_v", "c": 0.1},
        "jump": {"type": "multiplicative_v_mark", "sigma": 0.05},
        "marks": {"points": [1.0], "weights": [1.0]},
        "rho_const": 3.0,
        "eta_const": 3.0,
        "constants": {"beta": 2.0, "f_integral": 2.0, "g_integral": 0.01, "L_A": 1.0,
                      "C_growth": 10.0, "C_monotone": 10.0, "alpha": 4.0,
                      "h_p_integrals": {"2": 0.01, "4": 0.001}},
    },
}


def _time_reading_model():
    """conftest's time-dependent linear model with zero rho and eta, as a part-I model."""
    triple, bundle = make_time_dependent(level=4)
    zero = lambda u: np.zeros(u.shape[:-1])  # noqa: E731
    bundle = dataclasses.replace(bundle, rho=zero, eta=zero)
    constants = HypothesisConstants(beta=2.0, g_integral=0.4, L_A=1.0, C_growth=4.0, C_monotone=1.0,
                                    h_p_integrals={2.0: 0.2, 4.0: 0.1})
    return ModelSpec("time_dependent", triple, bundle, constants, "part1", np.ones(4))


def _audit_model(model_id):
    if model_id == "time_dependent":
        return _time_reading_model()
    if model_id in AUDIT_CUSTOM_MODELS:
        return from_config(AUDIT_CUSTOM_MODELS[model_id])
    return builtin(model_id)


@pytest.mark.parametrize("model_id", [*BUILTIN_IDS, *AUDIT_CUSTOM_MODELS, "time_dependent"])
def test_batched_audits_match_serial_scans(model_id):
    # every entry keeps the serial scan's margin, witness and tolerance bits;
    # the time-dependent model reads the time each sample row carries
    spec = _audit_model(model_id)
    for seed in (0, 5):
        batched = validate(spec, samples=128, seed=seed).entries
        serial = serial_audits.validate(spec, samples=128, seed=seed).entries
        assert [e.name for e in batched] == [e.name for e in serial]
        for b, s in zip(batched, serial):
            assert b.worst_margin == s.worst_margin, (b.name, seed)
            assert b.witness == s.witness, (b.name, seed)
            assert b.tolerance == s.tolerance, (b.name, seed)
            assert b.samples_used == s.samples_used


def test_hemicontinuity_estimate_matches_serial_scan(allen_cahn_spec, heat_spec):
    rng = np.random.default_rng(11)
    bad = step_discontinuous_bundle(heat_spec)
    for bundle, triple in ((allen_cahn_spec.bundle, allen_cahn_spec.triple), (bad, heat_spec.triple)):
        u, v, w = (rng.standard_normal(6) for _ in range(3))
        got = hemicontinuity_jump_estimate(bundle, triple, 0.3, u, v, w)
        assert got == serial_audits.hemicontinuity_jump_estimate(bundle, triple, 0.3, u, v, w)


def _poisoned(fn, targets):
    """``fn(t, u)`` with NaN in the rows of ``u`` equal to one of ``targets``."""

    def call(t, u):
        out = np.array(fn(t, u), dtype=float)
        for target in targets:
            out[np.all(u == target, axis=-1)] = np.nan
        return out

    return call


@pytest.mark.parametrize(
    "coefficient, hypothesis, rows",
    [("drift", "H3", (37,)), ("diffusion", "H5", (37,)), ("drift", "H3", (3, 8))],
    ids=["drift-H3", "diffusion-H5", "drift-H3-two-rows"],
)
def test_nan_row_inside_a_batch_raises(heat_spec, coefficient, hypothesis, rows):
    # samples turn non-finite among finite neighbours in the same coefficient
    # call, and the failing entry names the first of them at its own time,
    # as the serial scan does
    samples = _sample_states(heat_spec.triple, 8, 0, hypothesis, 64)
    targets = samples[list(rows)]
    poisoned = _poisoned(getattr(heat_spec.bundle, coefficient), targets)
    bundle = dataclasses.replace(heat_spec.bundle, **{coefficient: poisoned})
    entries = audit_coercivity_growth(bundle, heat_spec.constants, heat_spec.triple, "I", 64, 0)
    entry = next(e for e in entries if e.name == hypothesis)
    times = _time_grid(heat_spec.constants)
    assert not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness == {
        "coefficient": coefficient, "t": float(times[rows[0] % times.size]), "u": targets[0].tolist(),
    }

    # validate turns it into a failing entry
    report = validate(dataclasses.replace(heat_spec, bundle=bundle), samples=64, seed=0)
    entry = report.entry(hypothesis)
    assert not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness["coefficient"] == coefficient


def test_nan_in_a_stacked_pair_names_the_first_failing_pair(heat_spec):
    # pair 5's u and pair 3's v turn non-finite in one stacked drift call;
    # the entry names pair 3's v at its own time, the row the serial scan
    # meets first
    states = _sample_states(heat_spec.triple, 8, 0, "H2", 64)
    us, vs = states[:-1:2], states[1::2]
    bundle = dataclasses.replace(heat_spec.bundle, drift=_poisoned(heat_spec.bundle.drift, [us[5], vs[3]]))
    entry = audit_local_monotonicity(bundle, heat_spec.constants, heat_spec.triple, "H2", 64, 0)
    times = _time_grid(heat_spec.constants)
    assert not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness == {"coefficient": "drift", "t": float(times[3]), "u": vs[3].tolist()}


def _recording(fn, rows):
    """``fn(t, u)`` that appends each row of ``u`` to ``rows`` as a tuple."""

    def call(t, u):
        rows.extend(map(tuple, np.reshape(u, (-1, np.shape(u)[-1])).tolist()))
        return fn(t, u)

    return call


def test_descent_fails_only_on_trials_the_serial_descent_evaluates(heat_spec):
    # the batched descent evaluates some trials from a point the serial
    # descent has already left; a drift that is NaN at the first such trial
    # only must leave every margin and witness as the serial scan has them
    spec, args = heat_spec, (heat_spec.constants, heat_spec.triple, "I", 64, 0)
    batched, serial = [], []
    bundle = dataclasses.replace(spec.bundle, drift=_recording(spec.bundle.drift, batched))
    audit_coercivity_growth(bundle, *args)
    bundle = dataclasses.replace(spec.bundle, drift=_recording(spec.bundle.drift, serial))
    reference = serial_audits.audit_coercivity_growth(bundle, *args)
    reached = set(serial)
    speculative = [row for row in batched if row not in reached]
    assert speculative
    bundle = dataclasses.replace(spec.bundle, drift=_poisoned(spec.bundle.drift, [np.array(speculative[0])]))
    planted = audit_coercivity_growth(bundle, *args)
    assert [(e.name, e.worst_margin, e.witness, e.tolerance) for e in planted] == [
        (e.name, e.worst_margin, e.witness, e.tolerance) for e in reference
    ]
    assert all(e.passed for e in planted)


def test_level_32_audit_calls_stay_within_the_row_cap(heat_spec):
    # a round at level 32 has 128 trials of (u, v): the descent splits them
    # into windows of AUDIT_BATCH_ROWS // 2 so no stacked call passes the cap
    sizes = []

    def sized(fn, pos):
        def call(*args):
            sizes.append(math.prod(np.shape(args[pos])[:-1]))
            return fn(*args)

        return call

    b = heat_spec.bundle
    bundle = dataclasses.replace(
        b, drift=sized(b.drift, 1), diffusion=sized(b.diffusion, 1), jump=sized(b.jump, 1),
        rho=sized(b.rho, 0), eta=sized(b.eta, 0),
    )
    c, triple = heat_spec.constants, heat_spec.triple
    audit_local_monotonicity(bundle, c, triple, "H2", 64, 0, level=32)
    audit_coercivity_growth(bundle, c, triple, "I", 64, 0, level=32)
    audit_sequential_continuity(bundle, c, triple, 64, 0, level=32)
    assert max(sizes) == AUDIT_BATCH_ROWS


#: the entries ``validate`` lists for heat, in order
HEAT_ENTRIES = ["H1", "H2", "H3", "H4", "H5", "H6-p2", "H6-p4", "H5-continuity", "H6-continuity"]


@pytest.mark.parametrize("mode", ["H2", "H2prime"])
def test_nonfinite_drift_fails_local_monotonicity(heat_spec, mode):
    # validate audits H2prime when the model declares no rho and eta
    bundle = dataclasses.replace(heat_spec.bundle, drift=lambda t, u: np.full(u.shape, np.nan))
    if mode == "H2prime":
        bundle = dataclasses.replace(bundle, rho=None, eta=None)
    entry = audit_local_monotonicity(bundle, heat_spec.constants, heat_spec.triple, mode, 64, 0)
    first = _sample_states(heat_spec.triple, 8, 0, mode, 64)[0]
    assert entry.name == mode and not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness == {"coefficient": "drift", "t": 0.0, "u": first.tolist()}

    report = validate(dataclasses.replace(heat_spec, bundle=bundle), samples=64, seed=0)
    assert [e.name for e in report.entries] == [mode if n == "H2" else n for n in HEAT_ENTRIES]
    assert report.entry(mode).witness == entry.witness


def test_nonfinite_rho_fails_the_h2_envelope(heat_spec):
    # rho is NaN at one v sample only, which the inequality never passes to
    # rho (it evaluates rho at u and eta at v); the envelope evaluates both
    target = _sample_states(heat_spec.triple, 8, 0, "H2", 64)[1]

    def rho(u):
        out = np.array(heat_spec.bundle.rho(u), dtype=float)
        out[np.all(u == target, axis=-1)] = np.nan
        return out

    bundle = dataclasses.replace(heat_spec.bundle, rho=rho)
    entry = audit_local_monotonicity(bundle, heat_spec.constants, heat_spec.triple, "H2", 64, 0)
    assert not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness == {"coefficient": "rho", "t": None, "u": target.tolist()}

    report = validate(dataclasses.replace(heat_spec, bundle=bundle), samples=64, seed=0)
    assert [e.name for e in report.entries] == HEAT_ENTRIES
    assert [e.name for e in report.entries if not e.passed] == ["H2"]


def test_nonfinite_jump_fails_its_entries_and_keeps_the_rest(heat_spec):
    bundle = dataclasses.replace(
        heat_spec.bundle, jump=lambda t, u, z: np.full(u.shape, np.nan), jump_weighted_sum=None
    )
    h2 = audit_local_monotonicity(bundle, heat_spec.constants, heat_spec.triple, "H2", 64, 0)
    assert not h2.passed and h2.witness["coefficient"] == "jump"
    continuity = audit_sequential_continuity(bundle, heat_spec.constants, heat_spec.triple, 64, 0)
    assert [e.name for e in continuity] == ["H5-continuity", "H6-continuity"]
    assert continuity[0].passed
    assert math.isnan(continuity[1].worst_margin) and continuity[1].witness["coefficient"] == "jump"

    report = validate(dataclasses.replace(heat_spec, bundle=bundle), samples=64, seed=0)
    assert [e.name for e in report.entries] == HEAT_ENTRIES
    assert [e.name for e in report.entries if not e.passed] == ["H2", "H6-p2", "H6-p4", "H6-continuity"]


def test_audit_counters_repeat_across_reruns(allen_cahn_spec):
    runs = [validate(allen_cahn_spec, samples=64, seed=3) for _ in range(2)]
    counters = [[(e.evaluations, e.descent_gain) for e in r.entries] for r in runs]
    assert counters[0] == counters[1]
    for e in runs[0].entries:
        assert e.evaluations > 0 and e.descent_gain <= 0.0
    # one scan on the 1025-point grid, whose strides are the coarse grids
    assert runs[0].entry("H1").evaluations >= 1025
    first = runs[0].entries[0].to_json_dict()
    assert first["evaluations"] == runs[0].entries[0].evaluations
    assert first["descent_gain"] == 0.0


# ---------------------------------------------------------------------------
# time as a batch axis
# ---------------------------------------------------------------------------


def _time_cases():
    _, bundle = make_time_dependent(level=4)
    yield "time_dependent", bundle, 4
    for model in BUILTIN_IDS:
        yield model, builtin(model).bundle, 6


def _time_calls(bundle, m, rng):
    """(name, fn(t, u)) for every callable of the bundle that takes a time."""
    dw = rng.normal(size=m)
    calls = [("drift", bundle.drift), ("diffusion", bundle.diffusion)]
    for z in bundle.mark_space.marks.tolist() or [1.0]:
        calls.append((f"jump[{z}]", lambda t, u, z=z: bundle.jump(t, u, z)))
    if bundle.drift_jacobian is not None:
        calls.append(("drift_jacobian", bundle.drift_jacobian))
    if bundle.drift_implicit_solve is not None:
        calls.append(("drift_implicit_solve", lambda t, u: bundle.drift_implicit_solve(t, u, 0.01)))
    if bundle.diffusion_matvec is not None:
        calls.append(("diffusion_matvec",
                      lambda t, u: bundle.diffusion_matvec(t, u, np.broadcast_to(dw, u.shape))))
    if bundle.jump_weighted_sum is not None:
        calls.append(("jump_weighted_sum", bundle.jump_weighted_sum))
    return calls


@pytest.mark.parametrize("name, bundle, m", list(_time_cases()), ids=[c[0] for c in _time_cases()])
@pytest.mark.parametrize("lead", [(7,), (3, 4)], ids=["rows", "steps-paths"])
def test_array_time_rows_equal_their_scalar_time_calls(name, bundle, m, lead):
    # one time per row, (..., 1): every row has the bits of its own call at
    # its time as a float
    rng = np.random.default_rng(5)
    u = rng.normal(size=lead + (m,)) * np.geomspace(0.1, 4.0, num=lead[-1])[:, None]
    t = rng.uniform(0.0, 1.0, size=lead + (1,))
    for call_name, fn in _time_calls(bundle, m, rng):
        got = np.asarray(fn(t, u), dtype=float)
        for idx in np.ndindex(*lead):
            want = np.asarray(fn(float(t[idx][0]), u[idx]), dtype=float)
            np.testing.assert_array_equal(got[idx], want, err_msg=f"{name} {call_name} row {idx}")
        if name == "time_dependent":
            # the oracle bundle does read its time
            assert not np.array_equal(got, np.asarray(fn(0.0, u), dtype=float)), call_name


# ---------------------------------------------------------------------------
# admissibility arithmetic
# ---------------------------------------------------------------------------


def test_moment_splitting_constants_exact():
    assert c1_of(2.5) == 1.0
    assert c1_of(4.0) == 2.0
    assert c2_of(3.0) == 1.0
    assert c2_of(5.0) == 2.0
    with pytest.raises(ValueError):
        c1_of(1.0)


def test_chi_at_flat_exponents():
    constants = HypothesisConstants(beta=2.0, L_A=1.0)
    assert chi_exponent(constants) == 1.0


def test_chi_branches_agree_at_beta_two():
    for lam in (0.0, 0.7, 2.0):
        c = HypothesisConstants(beta=2.0, lambda_exp=lam, alpha=0.3, zeta=0.1, theta_exp=0.5)
        below = chi_exponent(c)
        # the beta > 2 branch evaluated at beta = 2 gives the same value
        explicit = max(1.0 + c.alpha, 3.0 + lam - 2.0, 1.0 + c.zeta + 2.0 * c.theta_exp / 2.0)
        assert below == pytest.approx(explicit, rel=1e-15)


def test_prange_unbounded_when_noise_growth_vanishes():
    constants = HypothesisConstants(beta=2.0, L_A=1.0, L_B=0.0, L_gamma=0.0)
    result = admissible_p_range(constants)
    assert result.unbounded and not result.empty
    assert result.p_max == float("inf")
    assert result.p_min == 2.0


def _prange_oracle(la, lb, lg, chi, hi=512.0):
    """Independent bisection on the (monotone) admissibility conditions."""

    def ok(p):
        c1 = 1.0 if p <= 3.0 else 2.0 ** (p - 3.0)
        denom = lb + 2.0 * c1 * lg
        if denom == 0.0:
            growth = True
        else:
            growth = p < 1.0 + (2.0 * la + lb) / denom
        return growth and denom < (2.0 * la + lb) / chi

    if not ok(2.0):
        return None
    lo, hi_ = 2.0, hi
    for _ in range(80):
        mid = 0.5 * (lo + hi_)
        if ok(mid):
            lo = mid
        else:
            hi_ = mid
    return lo


@pytest.mark.parametrize(
    "la,lb,lg",
    [(1.0, 0.01, 0.0025), (1.0, 0.09, 0.08), (0.5, 0.3, 0.01), (2.0, 0.0, 0.05)],
)
def test_prange_scan_matches_bisection_oracle(la, lb, lg):
    constants = HypothesisConstants(beta=2.0, L_A=la, L_B=lb, L_gamma=lg)
    result = admissible_p_range(constants)
    oracle = _prange_oracle(la, lb, lg, chi_exponent(constants))
    assert oracle is not None and not result.empty
    assert result.p_max == pytest.approx(oracle, abs=2.0 / 64.0)


def test_prange_monotone_in_drift_constant():
    base = None
    for la in (0.5, 1.0, 2.0, 4.0):
        constants = HypothesisConstants(beta=2.0, L_A=la, L_B=0.05, L_gamma=0.02)
        p_max = admissible_p_range(constants).p_max
        if base is not None:
            assert p_max >= base - 1e-12
        base = p_max


def test_prange_empty_interval_flagged():
    # huge noise growth shuts the interval completely
    constants = HypothesisConstants(beta=2.0, L_A=0.01, L_B=5.0, L_gamma=5.0)
    result = admissible_p_range(constants)
    assert result.empty


def test_moment_side_condition_reported():
    constants = HypothesisConstants(beta=2.0, L_A=1.0, L_B=0.01, L_gamma=1e-9)
    result = admissible_p_range(constants)
    row = result.row_at(2.0)
    # L_gamma^{p/2} < L_A^{p/2} / ((1 + sqrt(3) C2) C2^2 C~_p) at p = 2
    side = (1.0 + math.sqrt(3.0)) * 1.0 * 16.0
    assert row["moment_ok"] == (1e-9 < 1.0 / side)
    assert row["moment_ok"]


def test_constants_validation():
    with pytest.raises(ValueError):
        HypothesisConstants(beta=1.0)
    with pytest.raises(ValueError):
        HypothesisConstants(beta=2.0, f_integral=-1.0)
