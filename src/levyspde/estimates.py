"""Monte Carlo energy statistics, discrete energy-identity residuals, and
the modulus-of-continuity diagnostic.

The energy study never estimates the Gronwall constant itself (it is not
constructive); what is checked empirically is finiteness and uniformity in
the Galerkin level of the normalized ratio

    r_m = (E[sup_t ‖Y‖_H^p] + E[(∫ ‖Y‖_V^β dt)^{p/2}]) / (1 + ‖x0‖_H^p).

Confidence intervals are normal-approximation 99% half-widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import AUDIT_BATCH_ROWS, CoefficientBundle
from .noise import ci99, grid_steps, sample_noise, step_index
from .parallel import path_rows
from .solver import PathRecord, SolverConfig, _drift_rows, _shared_step_grid, _truncated_rows, solve_paths
from .spaces import GelfandTriple, dot_rows, sum_squares

__all__ = [
    "EnergyStats",
    "energy_table",
    "discrete_energy_residuals",
    "residual_totals",
    "ModulusResult",
    "modulus_of_continuity",
    "modulus_study",
    "delta_steps",
]

@dataclass
class EnergyStats:
    p: float
    m: int
    dt: float
    T: float
    n_paths: int
    seed: int
    sup_h_p: float
    int_v_beta_p2: float
    mixed: float
    ci99: dict
    ratio: float  # r_m, the uniformity-in-level diagnostic
    truncated_paths: int  # paths with a truncated record, which make every figure NaN


def _energy_parts(record: PathRecord, p_list, beta: float):
    """(sup_t ‖Y‖_H, ∫‖Y‖_V^β dt, then ∫‖Y‖_V^β ‖Y‖_H^{p-2} dt for each p in p_list).

    The sup runs over every recorded entry including jump post-values; the
    integrals are left-Riemann sums over the record's time partition.
    """
    dts = np.diff(record.times)
    vb = record.norm_v[:-1] ** beta
    mixed = [float(np.dot(vb * record.norm_h[:-1] ** (p - 2.0), dts)) for p in p_list]
    return float(record.norm_h.max()), float(np.dot(vb, dts)), *mixed


def energy_table(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    p_list,
    configs,
    n_paths: int,
    seed: int,
    beta: float = 2.0,
    workers: int = 1,
) -> list[list[EnergyStats]]:
    """Ensemble estimates of the energy functionals: for each solver config
    (one per Galerkin level, say), one ``EnergyStats`` per moment order of
    ``p_list``.  Every config and order reads the same ``n_paths`` paths;
    every batch of ``path_rows`` is one task, which solves its paths at each
    config in turn.

    Per path these are sup_t ‖Y‖_H^p, (∫‖Y‖_V^β dt)^{p/2} and
    ∫‖Y‖_V^β ‖Y‖_H^{p-2} dt; a truncated path makes every figure NaN.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    configs = list(configs)
    p_list = [float(p) for p in p_list]
    if any(p < 2.0 for p in p_list):
        raise ValueError("moment orders must satisfy p >= 2")
    x0 = np.asarray(x0, dtype=float)
    width = 2 + len(p_list)

    def moment_rows(seeds):
        # a truncated path has no estimate of its own: it turns the ensemble's
        # figures into NaN, so the study fails instead of averaging a prefix;
        # a config's records go before the next is solved
        out = np.full((len(seeds), len(configs), width), np.nan)
        for j, config in enumerate(configs):
            records = solve_paths(bundle, triple, x0, config, seeds, keep_states=False)
            for p, rec in enumerate(records):
                if rec.truncated_at is None:
                    out[p, j] = _energy_parts(rec, p_list, beta)
            del records
        return out

    rows = path_rows(moment_rows, seed, n_paths, 1, workers).reshape(n_paths, len(configs), width)
    with np.errstate(over="ignore"):  # an overflowing x0 has truncated every path
        x0_h = float(np.linalg.norm(x0))
    return [_energy_stats(rows[:, j], p_list, config, n_paths, seed, x0_h)
            for j, config in enumerate(configs)]


def _energy_stats(rows: np.ndarray, p_list, config: SolverConfig, n_paths: int, seed: int,
                  x0_h: float) -> list[EnergyStats]:
    """One config's ``EnergyStats`` per moment order from its (n_paths, 2 +
    len(p_list)) rows of ``_energy_parts``."""
    sup_h, int_v, mixed = rows[:, 0], rows[:, 1], rows[:, 2:]  # mixed: (n_paths, len(p_list))
    truncated = _truncated_rows(rows)
    out = []
    for j, p in enumerate(p_list):
        sup_pow = sup_h**p
        int_pow = int_v ** (p / 2.0)
        mix = mixed[:, j]
        est_sup, est_int, est_mix = map(float, (sup_pow.mean(), int_pow.mean(), mix.mean()))
        stats = EnergyStats(
            p=p,
            m=config.level,
            dt=config.dt,
            T=config.T,
            n_paths=n_paths,
            seed=seed,
            sup_h_p=est_sup,
            int_v_beta_p2=est_int,
            mixed=est_mix,
            ci99={
                "sup_h_p": ci99(sup_pow),
                "int_v_beta_p2": ci99(int_pow),
                "mixed": ci99(mix),
            },
            ratio=(est_sup + est_int) / (1.0 + x0_h**p),
            truncated_paths=truncated,
        )
        out.append(stats)
    return out


# ---------------------------------------------------------------------------
# discrete energy identity
# ---------------------------------------------------------------------------


def _ito_terms(bundle: CoefficientBundle, t: np.ndarray, x: np.ndarray, dw: np.ndarray,
               dt: float, config: SolverConfig):
    """The Itô terms of one step's squared-norm balance for each row of x (R, m).

    Row r starts at the time ``t[r, 0]`` with the Wiener increment ``dw[r]``.
    Returns (R,) arrays (drift, wiener, compensator):

    * 2⟨A, Y⟩ dt at the point where the scheme evaluated the drift: the
      implicit endpoint, or the tamed start.  A row that the solver's
      halved-drift retry recovered sums its two substep pairings, each
      weighted by dt/2; a row that fails both has a NaN drift term.
    * ‖B‖_{L2}² dt + 2(B ΔW, x), with B at the step start.
    * 2 dt Σ_i λ_i (γ(t, x, z_i), x), the compensator pairing.
    """
    if config.scheme == "drift_implicit":
        # the solver's own drift rule and retry; only the tamed scheme reads a triple
        y, failed, midpoints = _drift_rows(bundle, None, x, t, dt, config)
        a_eval = np.asarray(bundle.drift(t + dt, y), dtype=float)
        drift_term = 2.0 * dot_rows(a_eval, y) * dt
        if midpoints:
            r = np.array(list(midpoints))
            half = np.stack(list(midpoints.values()))
            t_half = t[r] + dt / 2.0
            a_half = np.asarray(bundle.drift(t_half, half), dtype=float)
            a_end = np.asarray(bundle.drift(t_half + dt / 2.0, y[r]), dtype=float)
            drift_term[r] = (2.0 * dot_rows(a_half, half) * (dt / 2.0)
                             + 2.0 * dot_rows(a_end, y[r]) * (dt / 2.0))
        if failed:
            drift_term[list(failed)] = np.nan
    else:
        a_eval = np.asarray(bundle.drift(t, x), dtype=float)
        drift_term = 2.0 * dot_rows(a_eval, x) * dt

    b = np.asarray(bundle.diffusion(t, x), dtype=float)
    b_dw = (b @ dw[..., None])[..., 0]
    wiener_terms = sum_squares(b) * dt + 2.0 * dot_rows(b_dw, x)

    comp_term = np.zeros(x.shape[0])
    mark_space = bundle.mark_space
    if not mark_space.is_zero:
        for z, lam in zip(mark_space.marks, mark_space.weights):
            gz = np.asarray(bundle.jump(t, x, float(z)), dtype=float)
            comp_term = comp_term + lam * 2.0 * dot_rows(gz, x)
        comp_term = comp_term * dt
    return drift_term, wiener_terms, comp_term


def discrete_energy_residuals(
    records,
    bundle: CoefficientBundle,
    realizations,
    config: SolverConfig,
) -> np.ndarray:
    """Replay the squared-H-norm balance along recorded paths: a C-ordered
    (paths, steps) array whose row p holds path p's per-step residuals.

    Each step compares Δ‖Y‖² against 2⟨A, Y⟩ dt + ‖B‖_{L2}² dt + 2(B ΔW, Y)
    plus the jump quadratic-variation and compensated-martingale terms; the
    drift pairing is evaluated at the same point the scheme of ``config``,
    the one the records were solved with, used (implicit endpoint or tamed
    start, and both halved substeps where the solver's retry took them).
    The residual is O(dt) per step.
    The records must share one step grid (``solver._shared_step_grid``), and
    each realization must cover it (``NoiseRealization.check_covers``), as
    in ``solve_paths``.  Time is a batch axis: a chunk of C steps stacks the
    grid states and Wiener increments of every path into (C, P, m) arrays,
    flattened to one row per (step, path) whose ``t`` is the step's start
    time, and makes one call per coefficient and one ``jump`` call per mark
    for the compensator.  A chunk holds at most ``AUDIT_BATCH_ROWS`` rows
    (128 steps of one path, 2 steps of a 64-path batch, one step of a wider
    one).  Pairings go through ``dot_rows`` and Hilbert-Schmidt sums through
    ``sum_squares``, so a path's row has the bits of its replay alone,
    step by step at scalar times.  Recorded jumps are checked one by one,
    before the chunks: each must reproduce bit-exactly from ``bundle.jump``.
    Marks and compensator weights come from ``bundle.mark_space``, the
    measure the solver drew the jumps from.
    A step whose drift solve fails even on the halved retry, which cannot
    happen on a record the solver finished, gets a NaN residual.
    """
    mark_space = bundle.mark_space
    records, realizations = list(records), list(realizations)
    if len(records) != len(realizations):
        raise ValueError("need one realization per record")
    if not records:
        return np.empty((0, 0))
    first = records[0]
    m, dt, T = first.level, first.dt, first.T
    n_steps = grid_steps(T, dt)
    grid_t = _shared_step_grid(records)
    n_paths = len(records)
    grid_states = []
    jump_terms = np.zeros((n_steps, n_paths))
    for p, (record, realization) in enumerate(zip(records, realizations)):
        realization.check_covers(m, dt, T)
        if record.seed is not None and realization.seed != record.seed:
            raise ValueError("realization seed does not match the record")
        if record.truncated_at is not None or record.stopped_at is not None:
            raise ValueError("residual replay needs the full record, not a truncated one")
        times = record.times
        states = np.asarray(record.states, dtype=float)
        if states.shape != (times.size, m) or not np.all(np.isfinite(states)):
            raise ValueError(f"record states must be finite with shape ({times.size}, {m})")
        evs = [ev for ev in realization.jumps if ev.time <= T]
        ks = step_index([ev.time for ev in evs], T, dt).astype(int)
        # grid row k follows the (pre, post) rows of the jumps of earlier steps
        counts = np.bincount(ks, minlength=n_steps)
        rows = np.arange(n_steps + 1) + 2 * np.concatenate(([0], np.cumsum(counts)))
        if len(evs) != record.n_jump_entries or not np.array_equal(rows, np.flatnonzero(record.is_grid)):
            raise ValueError("record jump entries do not match the realization")
        grid_states.append(states[rows])
        # the path's jump i, in step k, has its pre row at k + 1 + 2i; bit-exact
        # replay: each recorded jump must reproduce from the bundle
        for i, (k, ev) in enumerate(zip(ks.tolist(), evs)):
            pre, post = states[k + 1 + 2 * i], states[k + 2 + 2 * i]
            g_check = np.asarray(bundle.jump(ev.time, pre, float(mark_space.marks[ev.mark_index])),
                                 dtype=float)
            if not np.array_equal(pre + g_check, post):
                raise ValueError(f"jump at t={ev.time} does not replay bit-exactly")
            g = post - pre
            jump_terms[k, p] += float(np.dot(g, g)) + 2.0 * float(np.dot(g, pre))

    wiener = [real.wiener[:n_steps, :m] for real in realizations]
    # chunk rows are k * P + p; at most AUDIT_BATCH_ROWS of them (one step
    # when the batch is wider) keep the temporaries small, and stacking per
    # chunk never holds the whole record twice
    chunk = max(1, AUDIT_BATCH_ROWS // n_paths)
    per_step = np.empty((n_steps, n_paths))
    for k0 in range(0, n_steps, chunk):
        k1 = min(k0 + chunk, n_steps)
        states = np.stack([g[k0:k1 + 1] for g in grid_states], axis=1)  # (C+1, P, m)
        x, x_next = states[:-1].reshape(-1, m), states[1:].reshape(-1, m)
        dw = np.stack([w[k0:k1] for w in wiener], axis=1).reshape(-1, m)
        t = np.repeat(grid_t[k0:k1], n_paths)[:, None]
        drift_term, wiener_terms, comp_term = _ito_terms(bundle, t, x, dw, dt, config)
        delta_sq = dot_rows(x_next, x_next) - dot_rows(x, x)
        per_step[k0:k1] = (delta_sq - (drift_term + wiener_terms + jump_terms[k0:k1].reshape(-1)
                                       - comp_term)).reshape(k1 - k0, n_paths)
    return per_step.T.copy()


def residual_totals(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    configs,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """The summed balance residual of each path of an ensemble, one row per
    solver config; NaN where a path was truncated.  Every batch of
    ``path_rows`` is one task, which solves and replays its paths at each
    config in turn."""
    configs = list(configs)

    def replay_totals(seeds):
        # the replay needs each path's realization, so the batch is solved on
        # it; a config's noise and records go before the next is solved, and
        # a truncated path has no balance to replay and keeps a NaN total
        totals = np.full((len(seeds), len(configs)), np.nan)
        for j, config in enumerate(configs):
            noise = [sample_noise(config.level, config.T, config.dt, bundle.mark_space, s)
                     for s in seeds]
            records = solve_paths(bundle, triple, x0, config, seeds, noise=noise)
            whole = [p for p, rec in enumerate(records) if rec.truncated_at is None]
            series = discrete_energy_residuals([records[p] for p in whole], bundle,
                                               [noise[p] for p in whole], config)
            totals[whole, j] = series.sum(axis=1)
            del noise, records, series
        return totals

    return path_rows(replay_totals, seed, n_paths, 1, workers).T


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


@dataclass
class ModulusResult:
    deltas: np.ndarray
    values: np.ndarray  # E ∫_0^{T-δ} ‖Y(t+δ) − Y(t)‖_H^β dt
    ci99: np.ndarray
    beta: float
    consistent_with_tightness: bool
    label: str
    truncated_paths: int  # paths with a truncated record, whose columns are NaN

    def rooted_values(self) -> np.ndarray:
        return self.values ** (1.0 / self.beta)

    def log_slope(self) -> float:
        """Least-squares slope of log rooted value against log δ.

        The β-th root makes the exponent comparable with the pathwise
        modulus heuristic (Brownian paths give ≈ 1/2) independently of β.
        """
        x = np.log(self.deltas)
        y = np.log(np.maximum(self.rooted_values(), 1e-300))
        return float(np.polyfit(x, y, 1)[0])


def delta_steps(delta: float, dt: float, n_steps: int) -> int:
    """Grid steps in the shift ``delta``: a positive multiple of ``dt`` and
    at most ``n_steps`` of them."""
    try:
        steps = grid_steps(delta, dt)
    except ValueError:
        raise ValueError(f"delta={delta} is not a positive multiple of dt={dt}") from None
    if steps > n_steps:
        raise ValueError(f"delta={delta} exceeds the horizon {n_steps * dt}")
    return steps


def _modulus_rows(paths, deltas, beta_exp: float) -> np.ndarray:
    """∫_0^{T-δ} ‖Y(t+δ) − Y(t)‖_H^β dt per shift δ (rows) and path (columns).

    The integral is a left-Riemann sum over t in [0, T - δ) on the paths'
    common step grid; a truncated path has no increments over the whole
    horizon, so its column is NaN.
    """
    out = np.full((len(deltas), len(paths)), np.nan)
    whole = [p for p, rec in enumerate(paths) if rec.truncated_at is None]
    if not whole:
        return out
    records = [paths[p] for p in whole]
    n_nodes = _shared_step_grid(records).size
    states = np.stack([rec.states[rec.is_grid] for rec in records])  # (paths, K+1, m)
    dt = records[0].dt
    for i, d in enumerate(deltas):
        steps = delta_steps(d, dt, n_nodes - 1)
        diff = states[:, steps:, :] - states[:, : n_nodes - steps, :]
        norms = np.sqrt(np.einsum("pkm,pkm->pk", diff, diff))
        # left-Riemann over t in [0, T - δ): nodes 0 .. K - steps - 1
        out[i, whole] = (norms[:, :-1] ** beta_exp).sum(axis=1) * dt if norms.shape[1] > 1 else 0.0
    return out


def _modulus_result(deltas, rows: np.ndarray, beta_exp: float) -> ModulusResult:
    """The increment table from ``_modulus_rows`` and its tightness verdict."""
    deltas = np.asarray(deltas)
    if np.isnan(rows).any():
        values, ci = np.full(deltas.size, np.nan), np.full(deltas.size, np.nan)
        ok, label = False, "undefined: a path was truncated (diagnostic, not a proof)"
    else:
        values = np.array([float(row.mean()) for row in rows])
        ci = np.array([ci99(row) for row in rows])
        ok = not any(values[i] > values[i + 1] + ci[i] + ci[i + 1] for i in range(deltas.size - 1))
        label = (
            "consistent with tightness (diagnostic, not a proof)"
            if ok
            else "not consistent with a vanishing modulus (diagnostic, not a proof)"
        )
    return ModulusResult(deltas=deltas, values=values, ci99=ci, beta=beta_exp,
                         consistent_with_tightness=ok, label=label,
                         truncated_paths=_truncated_rows(rows.T))


def modulus_of_continuity(paths, delta_list, beta_exp: float) -> ModulusResult:
    """Tightness-style diagnostic: the increment table over time shifts δ.

    ``paths`` is a list of PathRecords sharing one uniform step grid; each
    δ must be a grid multiple.  The verdict only says the table decreases
    toward zero within its CIs as δ decreases; it is a diagnostic, not a
    proof of tightness.
    """
    if not paths:
        raise ValueError("need at least one path")
    deltas = sorted(float(d) for d in delta_list)
    return _modulus_result(deltas, _modulus_rows(paths, deltas, beta_exp), beta_exp)


def modulus_study(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    config: SolverConfig,
    delta_list,
    beta_exp: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> ModulusResult:
    """``modulus_of_continuity`` of an ensemble of ``n_paths`` paths under ``seed``."""
    deltas = sorted(float(d) for d in delta_list)

    def shift_rows(seeds):
        return _modulus_rows(solve_paths(bundle, triple, x0, config, seeds), deltas, beta_exp).T

    return _modulus_result(deltas, path_rows(shift_rows, seed, n_paths, 1, workers).T, beta_exp)
