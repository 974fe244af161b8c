"""Noise sampling, compensation, and the second-moment identity."""

import numpy as np
import pytest

from levyspde.noise import (
    JumpEvent,
    MarkSpace,
    NoiseRealization,
    compensated_integral,
    ito_isometry_check,
    sample_jumps,
    sample_noise,
    wiener_chunks,
)
from levyspde.rng import derive_rng, derive_rngs

TWO_MARKS = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([2.0, 1.0]))
UNIT_MARK = MarkSpace(marks=np.array([1.0]), weights=np.array([1.0]))


def test_identical_seeds_reproduce_bitwise():
    a = sample_noise(4, 1.0, 0.05, TWO_MARKS, seed=123)
    b = sample_noise(4, 1.0, 0.05, TWO_MARKS, seed=123)
    np.testing.assert_array_equal(a.wiener, b.wiener)
    assert a.jumps == b.jumps


def test_different_seeds_differ():
    a = sample_noise(2, 1.0, 0.1, TWO_MARKS, seed=1)
    b = sample_noise(2, 1.0, 0.1, TWO_MARKS, seed=2)
    assert not np.array_equal(a.wiener, b.wiener)


def test_argument_validation():
    with pytest.raises(ValueError):
        sample_noise(2, -1.0, 0.1, TWO_MARKS, seed=0)
    with pytest.raises(ValueError):
        sample_noise(2, 1.0, 0.0, TWO_MARKS, seed=0)
    with pytest.raises(ValueError):
        sample_noise(2, 1.0, 0.3, TWO_MARKS, seed=0)  # dt does not divide T
    with pytest.raises(ValueError):
        sample_noise(0, 1.0, 0.1, TWO_MARKS, seed=0)


def test_jump_count_mean_matches_intensity():
    # lam(Z) = 3, T = 2 -> ensemble mean count 6
    counts = [len(sample_noise(1, 2.0, 0.25, TWO_MARKS, seed=s).jumps) for s in range(600)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 6.0) <= 4 * se


def test_wiener_increment_variance():
    dt = 0.01
    draws = np.concatenate(
        [sample_noise(10, 1.0, dt, MarkSpace.zero(), seed=s).wiener.ravel() for s in range(100)]
    )
    assert draws.size == 100_000
    assert abs(draws.var() - dt) / dt <= 0.05


def test_mark_frequencies_follow_weights():
    # weights (2, 1): mark index 0 frequency -> 2/3
    picks = []
    for s in range(400):
        picks.extend(ev.mark_index for ev in sample_noise(1, 1.0, 0.1, TWO_MARKS, seed=s).jumps)
    picks = np.asarray(picks)
    freq = (picks == 0).mean()
    se = np.sqrt(freq * (1 - freq) / picks.size)
    assert abs(freq - 2.0 / 3.0) <= 4 * max(se, 1e-3)


def test_jump_times_strictly_increasing():
    for s in range(50):
        times = [ev.time for ev in sample_noise(1, 2.0, 0.1, TWO_MARKS, seed=s).jumps]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_compensated_integral_constant_integrand():
    # constant h factors out: result = h (N(T) - T lam(Z))
    h = np.array([2.0, -1.0])
    real = sample_noise(2, 1.0, 0.05, TWO_MARKS, seed=5)
    value = compensated_integral(lambda t, z: h, real, TWO_MARKS)
    n_t = len(real.jumps)
    np.testing.assert_allclose(value, h * (n_t - 1.0 * TWO_MARKS.total_intensity), rtol=1e-12)


def test_compensated_integral_zero_integrand():
    real = sample_noise(1, 1.0, 0.1, TWO_MARKS, seed=3)
    value = compensated_integral(lambda t, z: np.zeros(1), real, TWO_MARKS)
    np.testing.assert_array_equal(np.atleast_1d(value), [0.0])


def test_compensated_integral_time_linear_closed_form():
    # integrand t on a single unit-intensity mark: compensator = 1/2 exactly
    # in the limit; the grid rule gives the left-Riemann value of t dt
    dt = 1e-3
    real = sample_noise(1, 1.0, dt, UNIT_MARK, seed=9)
    value = float(np.atleast_1d(compensated_integral(lambda t, z: np.array([t]), real, UNIT_MARK))[0])
    event_sum = sum(ev.time for ev in real.jumps)
    left_riemann = dt * sum(k * dt for k in range(round(1.0 / dt)))
    assert value == pytest.approx(event_sum - left_riemann, rel=1e-12)
    assert left_riemann == pytest.approx(0.5, abs=dt)


def test_compensated_integral_horizon_must_lie_on_the_realization_grid():
    # no events and one unit-intensity mark: the value is minus the compensator, -T
    real = NoiseRealization(wiener=np.zeros((10, 1)), jumps=(), seed=0, m=1, dt=0.1, T=1.0)
    one = lambda t, z: np.array([1.0])  # noqa: E731
    assert compensated_integral(one, real, UNIT_MARK)[0] == -1.0
    assert compensated_integral(one, real, UNIT_MARK, T=0.5)[0] == -0.5
    for T in (0.54, 0.55, 2.0):  # off the dt grid, or past the realization's horizon
        with pytest.raises(ValueError):
            compensated_integral(one, real, UNIT_MARK, T=T)


def test_martingale_surrogate_mean_zero():
    # ensemble mean of the compensated integral vanishes within 4 SE
    for integrand in (lambda t, z: np.array([1.0]), lambda t, z: np.array([t * z])):
        vals = []
        for s in range(400):
            real = sample_noise(1, 1.0, 0.01, TWO_MARKS, seed=s)
            vals.append(float(np.atleast_1d(compensated_integral(integrand, real, TWO_MARKS))[0]))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) <= 4 * se


def test_independent_scattering_of_disjoint_windows():
    # counts on disjoint time intervals are uncorrelated
    n = 500
    first, second = np.empty(n), np.empty(n)
    for s in range(n):
        real = sample_noise(1, 2.0, 0.1, TWO_MARKS, seed=s)
        times = np.array([ev.time for ev in real.jumps])
        first[s] = np.sum(times <= 1.0)
        second[s] = np.sum(times > 1.0)
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_isometry_zero_integrand():
    res = ito_isometry_check(lambda t, z: np.array([0.0]), TWO_MARKS, 1.0, 0.01, 200, seed=0)
    assert res["lhs"] == 0.0 and res["rhs"] == 0.0


def test_isometry_constant_integrand():
    # variance of the compensated count at unit intensity: rhs = T lam(Z) = 1
    res = ito_isometry_check(lambda t, z: np.array([1.0]), UNIT_MARK, 1.0, 0.01, 2000, seed=1)
    assert res["rhs"] == pytest.approx(1.0, rel=1e-6)
    assert abs(res["lhs"] - res["rhs"]) <= 3 * res["ci99"]


def test_isometry_time_linear_integrand():
    # rhs = 2 * integral of t^2 over [0, 1] = 2/3 for intensity-2 marks
    marks = MarkSpace(marks=np.array([1.0]), weights=np.array([2.0]))
    res = ito_isometry_check(lambda t, z: np.array([t]), marks, 1.0, 0.01, 2000, seed=2)
    assert res["rhs"] == pytest.approx(2.0 / 3.0, rel=1e-4)
    assert abs(res["lhs"] - res["rhs"]) <= 3 * res["ci99"]


def test_isometry_needs_enough_paths():
    with pytest.raises(ValueError):
        ito_isometry_check(lambda t, z: np.array([1.0]), UNIT_MARK, 1.0, 0.1, 50, seed=0)


def test_mark_space_validation_and_moments():
    with pytest.raises(ValueError):
        MarkSpace(marks=np.array([1.0]), weights=np.array([0.0]))
    ms = MarkSpace(marks=np.array([2.0, -1.0]), weights=np.array([0.5, 1.5]))
    assert ms.total_intensity == 2.0
    assert ms.moment(2.0) == pytest.approx(0.5 * 4.0 + 1.5 * 1.0)
    assert MarkSpace.zero().is_zero


def test_realization_validation():
    with pytest.raises(ValueError):
        NoiseRealization(
            wiener=np.zeros((2, 1)),
            jumps=(JumpEvent(0.5, 0), JumpEvent(0.5, 1)),
            seed=0, m=1, dt=0.5, T=1.0,
        )


def test_substream_independence_keys():
    a = derive_rng(5, "wiener").standard_normal(4)
    b = derive_rng(5, "jumps").standard_normal(4)
    c = derive_rng(5, "wiener").standard_normal(4)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 7])
@pytest.mark.parametrize("keys", [("audit-H2", "state"), ("audit-H1",), ("audit-seqcont",)])
@pytest.mark.parametrize("count", [0, 1, 257])
def test_derive_rngs_equal_one_derivation_per_index(seed, keys, count):
    # seeds of one and two uint32 words, and 2**64 + 7, which masks to 7
    batched = [g.standard_normal(6) for g in derive_rngs(seed, *keys, count=count)]
    serial = [derive_rng(seed, *keys, i).standard_normal(6) for i in range(count)]
    assert len(batched) == count
    for a, b in zip(batched, serial):
        np.testing.assert_array_equal(a, b)


def test_derive_rngs_count_is_checked_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        for count in (2**32 + 1, 2**40, -1):
            with pytest.raises(ValueError, match="count"):
                derive_rngs(0, "audit-H2", "state", count=count)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_chunked_draws_match_one_shot_realization():
    # ensemble solves draw each path's increments a chunk at a time from its
    # own stream; stacked, they are sample_noise's one-shot draw bit for bit,
    # a repeated seed fills each of its columns, and each chunk is C-contiguous
    for seeds, chunk in (
        ([3, 17, 2**63 + 5], 64),
        ([3, 17, 3, 2**63 + 5, 17], 64),
        ([3, 17, 3], 1),
        ([5, 8], 150),
        ([5, 8, 5], 1000),  # one chunk, wider than the horizon
    ):
        chunks = list(wiener_chunks(seeds, 4, 150, 0.01, chunk))
        sizes = [min(chunk, 150 - k0) for k0 in range(0, 150, chunk)]
        assert [c.shape for c in chunks] == [(n, len(seeds), 4) for n in sizes]
        assert all(c.flags.c_contiguous for c in chunks)
        stacked = np.concatenate(chunks)
        for p, seed in enumerate(seeds):
            real = sample_noise(4, 1.5, 0.01, TWO_MARKS, seed)
            np.testing.assert_array_equal(stacked[:, p], real.wiener)
            assert sample_jumps(1.5, TWO_MARKS, seed) == real.jumps


@pytest.mark.parametrize("mark_space", [
    TWO_MARKS,
    UNIT_MARK,
    MarkSpace(marks=np.linspace(-1.0, 1.0, 7), weights=np.array([0.1, 0.3, 1e-3, 5.0, 0.7, 0.7, 2.2])),
])
def test_jump_marks_are_the_draws_of_rng_choice(mark_space):
    # the inverse-CDF draw of sample_jumps against numpy's weighted choice on
    # the same stream: identical event tuples, seed by seed
    lam = mark_space.total_intensity
    for seed in range(120):
        rng = derive_rng(seed, "jumps")
        events, t = [], 0.0
        while (t := t + rng.exponential(1.0 / lam)) <= 2.0:
            events.append(JumpEvent(t, int(rng.choice(mark_space.marks.size, p=mark_space.weights / lam))))
        assert sample_jumps(2.0, mark_space, seed) == tuple(events)
