"""Replay-based uniqueness, weighted stability, continuous dependence, and
Galerkin convergence studies.

All studies couple their comparisons through shared noise: the same
realization drives both members of a pair, and in the level study the
level-m solve consumes the first m Wiener modes of the reference
realization together with the identical jump event list, mirroring the
nesting of the truncated noise projections.  Every study maps a closure
over its own inputs across its batches through ``parallel.path_rows``, and
advances each batch through ``solver.solve_paths``: a uniqueness or
stability pair solves two rows, a dependence path one plus one per nonzero
perturbation, and a convergence path one per level.
Uniqueness and stability compare grid states alone and reduce each finished
chunk inside the solve (``on_grid``); dependence and convergence read the
jump rows too and keep whole records.  A pair shares a seed, and an
explicit coupling passes the realizations in through its ``noise=``
argument.  A path with a truncated record, any of its rows
(``solver._lost_paths``), is a NaN row, so the study counts it
(``solver._truncated_rows``) instead of comparing a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

import numpy as np

from .coefficients import CoefficientBundle, HypothesisConstants, _batched
from .noise import JumpEvent, NoiseRealization, ci99, grid_times, sample_noise, step_index
from .parallel import path_rows
from .solver import SolverConfig, _lost_paths, _truncated_rows, solve_paths
from .spaces import GelfandTriple, dot_rows

__all__ = [
    "StabilityResult",
    "DependenceTable",
    "ConvergenceTable",
    "pathwise_uniqueness_test",
    "uniqueness_sups",
    "weighted_stability_mc",
    "continuous_dependence_study",
    "galerkin_convergence",
]


def _stability_weights(rates, times) -> np.ndarray:
    """φ(t) = exp(−∫_0^t [f + ρ(Y_a) + η(Y_b)] ds) at each step end t_1 .. t_K.

    ``times`` holds the step grid t_0 .. t_K, and ``rates`` the integrand
    (f + ρ(Y_a)) + η(Y_b) at t_0 .. t_{K-1}: shape (K,) for one pair, or
    (K, n) with one column per pair.  The integral is a left-Riemann sum, so
    for nonnegative f, ρ, η the weight stays in (0, 1] and is nonincreasing.
    """
    dt = np.diff(times)
    increments = rates * (dt if np.ndim(rates) == 1 else dt[:, None])
    # cumsum adds in step order down each column, so every entry is its
    # pair's running sum; math.exp, as numpy's exp rounds differently, one
    # column at a time, so no more than K Python floats are ever held
    running = np.cumsum(increments, axis=0)
    phis = np.empty_like(running)
    for v, phi in zip(running.reshape(len(running), -1).T, phis.reshape(len(running), -1).T):
        phi[:] = [math.exp(-x) for x in v.tolist()]
    return phis


# ---------------------------------------------------------------------------
# pathwise uniqueness by replay
# ---------------------------------------------------------------------------


def _reorder_same_step_marks(realization: NoiseRealization, dt: float) -> NoiseRealization:
    """Reverse the mark order of events sharing a solver step (times unchanged)."""
    steps = step_index([ev.time for ev in realization.jumps], realization.T, dt).tolist()
    out = []
    for _, pairs in groupby(zip(steps, realization.jumps), key=itemgetter(0)):
        group = [ev for _, ev in pairs]
        marks = [ev.mark_index for ev in group][::-1]
        out.extend(JumpEvent(time=ev.time, mark_index=mk) for ev, mk in zip(group, marks))
    return NoiseRealization(
        wiener=realization.wiener,
        jumps=tuple(out),
        seed=realization.seed,
        m=realization.m,
        dt=realization.dt,
        T=realization.T,
    )


def uniqueness_sups(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    stress: bool = False,
    workers: int = 1,
) -> np.ndarray:
    """sup_t ‖Y1 − Y2‖_H of each path, for two solves on identical data.

    With the default deterministic scheme the two solves are bit-identical
    and every entry is exactly 0.  ``stress=True`` reverses the application
    order of marks that share a step, measuring the reordering effect.  A
    path with a truncated record gives NaN.
    """

    def pair_sups(seeds):
        # seed i's noise drives rows i and n + i (under stress, row n + i with
        # its same-step marks reordered); each finished chunk of grid states
        # is reduced to the pairs' running sups, so no state is held
        n, m = len(seeds), config.level
        noise = None
        if stress:
            first = [sample_noise(m, config.T, config.dt, bundle.mark_space, s) for s in seeds]
            noise = first + [_reorder_same_step_marks(r, config.dt) for r in first]
        sups = np.zeros(n)

        def reduce(k, block):
            # compare on the step grid: within-step jump sequencing is an artifact
            # of the splitting, the path itself is its end-of-step skeleton; a
            # truncated pair's rows are meaningless, and its sup is NaN below
            with np.errstate(all="ignore"):
                diff = (block[:, :n] - block[:, n:]).reshape(-1, m)
                norms = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(len(block), n)
            np.maximum(sups, norms.max(axis=0), out=sups)

        records = solve_paths(bundle, triple, x0, config, seeds + seeds, noise=noise, on_grid=reduce)
        sups[_lost_paths(records, n)] = np.nan
        return sups

    return path_rows(pair_sups, seed, n_paths, 2, workers)[:, 0]  # each pair solves two rows


def pathwise_uniqueness_test(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    stress: bool = False,
    workers: int = 1,
) -> float:
    """max over paths of sup_t ‖Y1 − Y2‖_H (``uniqueness_sups``); NaN when a
    path was truncated."""
    return float(np.max(uniqueness_sups(bundle, triple, x0, config, n_paths, seed,
                                        stress=stress, workers=workers)))


# ---------------------------------------------------------------------------
# weighted two-point stability
# ---------------------------------------------------------------------------


@dataclass
class StabilityResult:
    times: np.ndarray
    lhs_curve: np.ndarray  # E[φ(t) ‖Y_a(t) − Y_b(t)‖_H²] on the step grid
    ci99: np.ndarray
    bound: float  # ‖P_m x0_a − P_m x0_b‖_H² at the solver level m
    eps_scheme: float  # declared discretization slack, 10·dt
    passed: bool
    worst_t: float
    worst_margin: float
    truncated_paths: int  # pairs with a truncated record, whose curves are NaN


def weighted_stability_mc(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    constants: HypothesisConstants,
    x0_a,
    x0_b,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> StabilityResult:
    """Check E[φ(t)‖Y_a − Y_b‖_H²] ≤ ‖x0_a − x0_b‖_H² on the step grid.

    φ is accumulated with ρ evaluated along Y_a and η along Y_b.  The
    verdict allows the declared scheme slack (1 + 10·dt), since the
    continuous-time inequality leaks O(dt) under discretization.
    """
    if bundle.rho is None or bundle.eta is None:
        raise ValueError("weighted stability requires the bundle to declare rho and eta")
    x0_a = np.asarray(x0_a, dtype=float)
    x0_b = np.asarray(x0_b, dtype=float)
    m = config.level
    x0 = np.stack([triple.project(u, m).coeffs for u in (x0_a, x0_b)])
    times = grid_times(config.T, config.dt)
    f = np.array([constants.f_at(t) for t in times.tolist()])[:, None]

    def pair_curves(seeds):
        # rows [x0_a] * n + [x0_b] * n: path i's pair shares its seed's noise;
        # each finished chunk of grid states is reduced to the pair curves'
        # terms; a pair's row is its curve
        n = len(seeds)
        sq, rates = np.empty((times.size, n)), np.empty((times.size, n))

        def reduce(k, block):
            a, b = block[:, :n], block[:, n:]
            rows = slice(k, k + len(block))
            # a truncated pair's rows are meaningless; its curve is NaN below
            with np.errstate(all="ignore"):
                d = a - b
                sq[rows] = dot_rows(d, d)
                rho_a, eta_b = _batched(lambda u, v: (bundle.rho(u), bundle.eta(v)),
                                        a.reshape(-1, m), b.reshape(-1, m))
                rates[rows] = f[rows] + rho_a.reshape(len(block), n)
                rates[rows] += eta_b.reshape(len(block), n)

        records = solve_paths(bundle, triple, np.repeat(x0, n, axis=0), config, seeds + seeds,
                              on_grid=reduce)
        # the norms-only records go before the weights are formed
        lost = _lost_paths(records, n)
        del records
        rates[:, lost] = np.nan  # so no weight is taken of a truncated pair's rows
        curves = sq  # weighted in place
        curves[1:] *= _stability_weights(rates[:-1], times)
        curves[:, lost] = np.nan
        return curves.T

    # one C-ordered row per pair, so the mean adds the pairs in seed order
    curves = path_rows(pair_curves, seed, n_paths, 2, workers)  # each pair solves two rows
    lhs = curves.mean(axis=0)
    ci = np.array([ci99(curves[:, k]) for k in range(curves.shape[1])])
    # the bound of the starts the pairs solve: no mode above the level loosens
    # it; it overflows only where a start's own norm does, truncating its pair
    with np.errstate(over="ignore"):
        bound = float(np.dot(x0[0] - x0[1], x0[0] - x0[1]))
    eps = 10.0 * config.dt
    margins = bound * (1.0 + eps) - lhs
    worst = int(np.argmin(margins))
    return StabilityResult(
        times=times,
        lhs_curve=lhs,
        ci99=ci,
        bound=bound,
        eps_scheme=eps,
        passed=bool(np.all(margins >= 0.0)),
        worst_t=float(times[worst]),
        worst_margin=float(margins[worst]),
        truncated_paths=_truncated_rows(curves),
    )


# ---------------------------------------------------------------------------
# continuous dependence on the data
# ---------------------------------------------------------------------------


@dataclass
class DependenceTable:
    deltas: np.ndarray
    values: np.ndarray  # E[sup_t ‖Y(x0+Δd) − Y(x0)‖_H^p]
    ci99: np.ndarray
    p: float
    truncated_paths: int  # paths with a truncated record, whose rows are NaN

    def log_slope(self) -> float:
        """Least-squares slope of log value against log Δ; NaN below 2 usable points."""
        mask = (self.deltas > 0) & (self.values > 0) & np.isfinite(self.values)
        if mask.sum() < 2:
            return float("nan")
        x = np.log(self.deltas[mask])
        y = np.log(self.values[mask])
        return float(np.polyfit(x, y, 1)[0])


def continuous_dependence_study(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    perturbations,
    p: float,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> DependenceTable:
    """Table Δ ↦ E[sup_t ‖Y(x0 + Δ e_1) − Y(x0)‖_H^p] with matched noise."""
    x0 = np.asarray(x0, dtype=float)
    deltas = [float(d) for d in perturbations]
    p = float(p)
    direction = np.zeros_like(x0)
    direction[0] = 1.0
    starts = [x0] + [x0 + d * direction for d in deltas if d != 0.0]
    starts = np.stack([triple.project(u, config.level).coeffs for u in starts])
    nonzero = [j for j, d in enumerate(deltas) if d != 0.0]

    def perturbation_sups(seeds):
        # one block of the batch's paths per start: the base, then each
        # nonzero delta, every row on its path's seed
        n = len(seeds)
        records = solve_paths(bundle, triple, np.repeat(starts, n, axis=0), config, seeds * len(starts))
        lost = _lost_paths(records, n)
        out = np.zeros((n, len(deltas)))
        for i in np.flatnonzero(~lost):
            for r, j in enumerate(nonzero, start=1):
                diff = records[r * n + i].states - records[i].states
                out[i, j] = float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max()) ** p
        out[lost] = np.nan
        return out

    rows = path_rows(perturbation_sups, seed, n_paths, len(starts), workers)
    return DependenceTable(
        deltas=np.asarray(deltas),
        values=rows.mean(axis=0),
        ci99=np.array([ci99(rows[:, j]) for j in range(rows.shape[1])]),
        p=p,
        truncated_paths=_truncated_rows(rows),
    )


# ---------------------------------------------------------------------------
# Galerkin level convergence against the finest level
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceTable:
    levels: np.ndarray
    distances: np.ndarray  # E ‖Y_m − Y_{m_max}‖_{L^β(0,T;H)}
    ci99: np.ndarray
    beta: float
    reference_level: int
    truncated_paths: int  # paths with a truncated record at some level, whose rows are NaN


def galerkin_convergence(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    levels,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    beta: float = 2.0,
    workers: int = 1,
) -> ConvergenceTable:
    """Distance table against the finest level as the reference solution.

    The finest level is a proxy for the (unavailable) limit; each level
    consumes the first m Wiener modes of the shared realization and the
    identical jump stream.
    """
    levels = sorted(int(m) for m in levels)
    if levels[-1] > triple.dimension_cap:
        raise ValueError(f"level {levels[-1]} exceeds dimension_cap {triple.dimension_cap}")
    x0 = np.asarray(x0, dtype=float)
    beta = float(beta)

    def level_distances(seeds):
        # every level steps on the first m Wiener modes of the m_ref-wide noise
        noise = [sample_noise(levels[-1], config.T, config.dt, bundle.mark_space, s)
                 for s in seeds]
        records = [
            solve_paths(bundle, triple, x0, replace(config, level=m), seeds, noise=noise)
            for m in levels
        ]
        lost = _lost_paths([rec for by_level in records for rec in by_level], len(seeds))
        out = np.full((len(seeds), len(levels)), np.nan)
        for i in np.flatnonzero(~lost):
            recs = [by_level[i] for by_level in records]
            ref = recs[-1]
            dts = np.diff(ref.times)
            for j, (m, rec) in enumerate(zip(levels, recs)):
                diff = np.zeros_like(ref.states)
                diff[:, :m] = rec.states
                diff -= ref.states
                norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                out[i, j] = float(np.dot(norms[:-1] ** beta, dts)) ** (1.0 / beta)
        return out

    rows = path_rows(level_distances, seed, n_paths, len(levels), workers)  # one row per level
    return ConvergenceTable(
        levels=np.asarray(levels),
        distances=rows.mean(axis=0),
        ci99=np.array([ci99(rows[:, j]) for j in range(rows.shape[1])]),
        beta=beta,
        reference_level=levels[-1],
        truncated_paths=_truncated_rows(rows),
    )
