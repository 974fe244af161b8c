"""Truncated Wiener increments and compensated Poisson jump noise.

A noise realization bundles the first m modes of a cylindrical Wiener
process, sampled as independent N(0, dt) increments on a uniform grid, with
a time-sorted list of jump events drawn from a finite-intensity mark space.
Jump times are exact (exponential inter-arrivals), never rounded to the
grid, so the solver can consume them between steps and the compensated sum
stays a martingale increment to O(dt).

The mark space is an atomic realization of the intensity measure: finitely
many mark points z_i with weights lam_i > 0, so every integral against the
intensity measure reduces to a weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .rng import derive_rng, path_seed

__all__ = [
    "MarkSpace",
    "JumpEvent",
    "NoiseRealization",
    "sample_noise",
    "sample_jumps",
    "wiener_chunks",
    "grid_steps",
    "step_index",
    "ci99",
    "compensated_integral",
    "ito_isometry_check",
]

Z99 = 2.576  # two-sided 99% normal quantile


def ci99(values: np.ndarray) -> float:
    """Normal-approximation 99% half-width of the mean of ``values``."""
    if values.size < 2:
        return float("inf")
    return Z99 * float(values.std(ddof=1)) / np.sqrt(values.size)


class JumpEvent(NamedTuple):
    time: float
    mark_index: int


@dataclass(frozen=True)
class MarkSpace:
    """Atomic mark space: points z_i with intensity weights lam_i > 0."""

    marks: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        marks = np.asarray(self.marks, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)
        if marks.shape != weights.shape or marks.ndim != 1:
            raise ValueError("marks and weights must be 1-D arrays of equal length")
        if marks.size and np.any(weights <= 0):
            raise ValueError("mark weights must be positive")
        marks.setflags(write=False)
        weights.setflags(write=False)

    @property
    def total_intensity(self) -> float:
        return float(self.weights.sum())

    @property
    def is_zero(self) -> bool:
        """True for the identically-zero measure; jump simulation is skipped."""
        return self.marks.size == 0

    def moment(self, p: float) -> float:
        """Σ lam_i |z_i|^p, the p-th absolute moment of the intensity."""
        if self.is_zero:
            return 0.0
        return float(np.sum(self.weights * np.abs(self.marks) ** p))

    @staticmethod
    def zero() -> "MarkSpace":
        return MarkSpace(marks=np.zeros(0), weights=np.zeros(0))


@dataclass(frozen=True)
class NoiseRealization:
    """One sample of the driving noise on [0, T]."""

    wiener: np.ndarray  # (steps, m) independent N(0, dt) increments
    jumps: tuple[JumpEvent, ...]
    seed: int
    m: int
    dt: float
    T: float

    def __post_init__(self):
        wiener = np.asarray(self.wiener, dtype=float)
        object.__setattr__(self, "wiener", wiener)
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if wiener.ndim != 2 or wiener.shape[1] != self.m:
            raise ValueError(f"wiener must have shape (steps, {self.m})")
        times = [ev.time for ev in self.jumps]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("jump times must be strictly increasing")
        wiener.setflags(write=False)

    def check_covers(self, level: int, dt: float, T: float) -> None:
        """Raise ValueError unless this realization holds the noise a level-m
        solve on the dt grid of [0, T] consumes: ``level`` Wiener modes on
        that grid through T."""
        if (self.m < level or abs(self.dt - dt) > 1e-12 or self.T < T - 1e-12
                or self.wiener.shape[0] < grid_steps(T, dt)):
            raise ValueError(
                f"realization (m={self.m}, dt={self.dt}, T={self.T}, {self.wiener.shape[0]} steps) "
                f"does not cover level {level}, dt={dt}, T={T}"
            )


def grid_steps(T: float, dt: float) -> int:
    """Number of steps of the uniform grid k dt on [0, T]; dt must divide T."""
    if dt <= 0 or T <= 0:
        raise ValueError(f"T and dt must be positive, got T={T}, dt={dt}")
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n


def grid_times(T: float, dt: float) -> np.ndarray:
    """The nodes k dt, k = 0 .. K, of the uniform grid on [0, T]; the last is T itself."""
    nodes = np.arange(grid_steps(T, dt) + 1) * dt
    nodes[-1] = T
    return nodes


def step_index(times, T: float, dt: float) -> np.ndarray:
    """Index k of the grid step (k dt, (k+1) dt] that holds each event time.

    Steps are closed on the right, so an event at a grid time belongs to the
    step that ends there; the slack of 1e-15 absorbs the rounding of k dt.
    """
    return np.searchsorted(grid_times(T, dt)[1:] + 1e-15, np.asarray(times, dtype=float))


def sample_noise(m: int, T: float, dt: float, mark_space: MarkSpace, seed: int) -> NoiseRealization:
    """Draw one realization; deterministic given the seed.

    The Wiener matrix and the jump stream use distinct derived sub-streams,
    so they are independent and each is reproducible on its own.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n_steps = grid_steps(T, dt)
    wiener = next(wiener_chunks([seed], m, n_steps, dt, n_steps))[:, 0]
    jumps = sample_jumps(T, mark_space, seed)
    return NoiseRealization(wiener=wiener, jumps=jumps, seed=seed, m=m, dt=dt, T=T)


def sample_jumps(T: float, mark_space: MarkSpace, seed: int) -> tuple[JumpEvent, ...]:
    """The jump events on [0, T] of ``sample_noise(..., seed)``, alone.

    Each mark index is the inverse-CDF draw ``rng.choice(n, p=weights / lam)``
    makes, with the cumulative weights built once per stream.
    """
    jumps: list[JumpEvent] = []
    lam = mark_space.total_intensity
    if not mark_space.is_zero and lam > 0:
        rng_j = derive_rng(seed, "jumps")
        cdf = np.cumsum(mark_space.weights / lam)
        cdf /= cdf[-1]
        t = 0.0
        while True:
            t += rng_j.exponential(1.0 / lam)
            if t > T:
                break
            idx = int(cdf.searchsorted(rng_j.random(), side="right"))
            jumps.append(JumpEvent(time=t, mark_index=idx))
    return tuple(jumps)


def wiener_chunks(seeds, m: int, n_steps: int, dt: float, chunk: int) -> Iterator[np.ndarray]:
    """Wiener increments of several paths, ``chunk`` steps at a time.

    Yields fresh C-contiguous arrays of shape (steps, len(seeds), m) covering
    ``n_steps`` steps.  Column p continues the ``"wiener"`` stream of
    ``seeds[p]``, so stacking the chunks reproduces ``sample_noise(m, ...,
    seeds[p]).wiener`` bit for bit while holding only ``chunk`` rows of it at
    a time.  Each distinct seed draws its standard normals straight into its
    slice of one buffer, which is scaled by √dt into the chunk; a repeated
    seed draws once and fills each of its columns.
    """
    distinct = {s: i for i, s in enumerate(dict.fromkeys(seeds))}
    rngs = [derive_rng(s, "wiener") for s in distinct]
    columns = [distinct[s] for s in seeds]
    scale = np.sqrt(dt)
    buffer = np.empty((len(rngs), min(chunk, n_steps), m))
    for k0 in range(0, n_steps, chunk):
        rows = min(chunk, n_steps - k0)
        draws = buffer[:, :rows]
        for rng, out in zip(rngs, draws):
            rng.standard_normal(out=out)
        yield np.multiply(draws[columns].transpose(1, 0, 2), scale, order="C")


def _event_sum(
    integrand: Callable[[float, float], np.ndarray],
    jumps,
    mark_space: MarkSpace,
    T: float,
) -> np.ndarray:
    """Σ ζ(τ_i, z_i) over the events of ``jumps`` up to T, from zero."""
    total = np.zeros(())
    for ev in jumps:
        if ev.time > T:
            break
        total = total + np.asarray(integrand(ev.time, float(mark_space.marks[ev.mark_index])), dtype=float)
    return total


def _compensator_grid(
    integrand: Callable[[float, float], np.ndarray],
    mark_space: MarkSpace,
    dt: float,
    T: float,
) -> np.ndarray:
    """Left-endpoint quadrature of ∫_0^T Σ_i lam_i ζ(t, z_i) dt, from zero; dt must divide T."""
    comp = np.zeros(())
    for k in range(grid_steps(T, dt)):
        t = k * dt
        for z, lam in zip(mark_space.marks, mark_space.weights):
            comp = comp + lam * np.asarray(integrand(t, float(z)), dtype=float)
    return dt * comp


def compensated_integral(
    integrand: Callable[[float, float], np.ndarray],
    realization: NoiseRealization,
    mark_space: MarkSpace,
    T: float | None = None,
) -> np.ndarray:
    """∫∫ ζ dπ̃ = Σ_events ζ(τ_i, z_i) − ∫_0^T Σ_i lam_i ζ(t, z_i) dt.

    The compensator time integral uses left endpoints of the realization's
    dt grid, matching the predictable-integrand convention.  T must be a
    node of that grid, at most ``realization.T``.
    """
    if T is None:
        T = realization.T
    if T > realization.T:
        raise ValueError(f"T={T} lies past the realization's horizon {realization.T}")
    comp = _compensator_grid(integrand, mark_space, realization.dt, T)
    return _event_sum(integrand, realization.jumps, mark_space, T) - comp


def ito_isometry_check(
    integrand: Callable[[float, float], np.ndarray],
    mark_space: MarkSpace,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> dict:
    """Monte Carlo check of E‖∫∫ ζ dπ̃‖_H² against ∫_0^T Σ lam_i ‖ζ(t,z_i)‖² dt.

    Returns lhs (MC mean), rhs (deterministic quadrature), rel_err and the
    99% CI half-width of the lhs estimate.
    """
    if n_paths < 100:
        raise ValueError(f"n_paths must be >= 100, got {n_paths}")

    # the compensator is deterministic; compute once and reuse per path (dt must divide T)
    comp = _compensator_grid(integrand, mark_space, dt, T)
    sq_norms = np.empty(n_paths)
    for i in range(n_paths):
        jumps = sample_jumps(T, mark_space, path_seed(seed, i))
        value = np.atleast_1d(_event_sum(integrand, jumps, mark_space, T) - comp)
        sq_norms[i] = float(np.dot(value, value))
    lhs = float(sq_norms.mean())

    # dense trapezoid; the rhs is deterministic so quadrature error should
    # stay well below the MC half-width
    t_grid = np.linspace(0.0, T, max(round(T / dt), 2000) + 1)
    dens = np.zeros_like(t_grid)
    for z, lam in zip(mark_space.marks, mark_space.weights):
        for k, t in enumerate(t_grid):
            v = np.atleast_1d(integrand(float(t), float(z)))
            dens[k] += lam * float(np.dot(v, v))
    rhs = float(np.trapezoid(dens, t_grid))

    denom = max(abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / denom, "ci99": ci99(sq_norms)}
