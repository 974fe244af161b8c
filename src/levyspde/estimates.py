"""Monte Carlo energy statistics, discrete energy-identity residuals, and
the modulus-of-continuity diagnostic.

The energy study never estimates the Gronwall constant itself (it is not
constructive); what is checked empirically is finiteness and uniformity in
the Galerkin level of the normalized ratio

    r_m = (E[sup_t ‖Y‖_H^p] + E[(∫ ‖Y‖_V^β dt)^{p/2}]) / (1 + ‖x0‖_H^p).

Confidence intervals are normal-approximation 99% half-widths; medians are
reported alongside for p >= 4, where jump-driven moments get heavy-tailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import AUDIT_BATCH_ROWS, CoefficientBundle
from .noise import ci99, sample_noise, step_index
from .parallel import batch_seeds, map_indexed
from .solver import PathRecord, SolverConfig, _drift_rows, solve_paths
from .spaces import GelfandTriple, dot_rows, sum_squares

__all__ = [
    "EnergyStats",
    "energy_table",
    "ResidualSeries",
    "discrete_energy_residuals",
    "residual_totals",
    "ModulusResult",
    "modulus_of_continuity",
    "modulus_study",
    "delta_steps",
]

#: paths per energy task; fixed, so the batches never depend on the workers
ENERGY_BATCH = 25


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
    medians: dict | None
    ratio: float  # r_m, the uniformity-in-level diagnostic
    truncated_paths: int  # paths with a truncated record, which make every figure NaN


def _energy_parts(record: PathRecord, p_list, beta: float):
    """(sup_t ‖Y‖_H, ∫‖Y‖_V^β dt, [∫‖Y‖_V^β ‖Y‖_H^{p-2} dt for p in p_list]).

    The sup runs over every recorded entry including jump post-values; the
    integrals are left-Riemann sums over the record's time partition.
    """
    dts = np.diff(record.times)
    vb = record.norm_v[:-1] ** beta
    mixed = [float(np.dot(vb * record.norm_h[:-1] ** (p - 2.0), dts)) for p in p_list]
    return float(record.norm_h.max()), float(np.dot(vb, dts)), mixed


def _energy_batch_worker(ctx, b: int):
    # a truncated path has no estimate of its own: it turns the ensemble's
    # figures into NaN, so the study fails instead of averaging a prefix
    bundle, triple, x0, config, batches, p_list, beta = ctx
    records = solve_paths(bundle, triple, x0, config, batches[b], keep_states=False)
    nan = float("nan")
    return [
        _energy_parts(rec, p_list, beta) if rec.truncated_at is None else (nan, nan, [nan] * len(p_list))
        for rec in records
    ]


def energy_table(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    p_list,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    beta: float = 2.0,
    workers: int = 1,
) -> list[EnergyStats]:
    """Ensemble estimates of the energy functionals, one ``EnergyStats`` per
    moment order of ``p_list``; every order reads the same ``n_paths`` paths.

    Per path these are sup_t ‖Y‖_H^p, (∫‖Y‖_V^β dt)^{p/2} and
    ∫‖Y‖_V^β ‖Y‖_H^{p-2} dt; a truncated path makes every figure NaN.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    p_list = [float(p) for p in p_list]
    if any(p < 2.0 for p in p_list):
        raise ValueError("moment orders must satisfy p >= 2")
    x0 = np.asarray(x0, dtype=float)
    batches = batch_seeds(seed, n_paths, ENERGY_BATCH)
    ctx = (bundle, triple, x0, config, batches, p_list, beta)
    rows = [row for batch in map_indexed(_energy_batch_worker, ctx, len(batches), workers)
            for row in batch]
    sup_h = np.array([r[0] for r in rows])
    int_v = np.array([r[1] for r in rows])
    mixed = np.array([r[2] for r in rows])  # (n_paths, len(p_list))
    truncated = int(np.isnan(sup_h).sum())

    x0_h = float(np.linalg.norm(x0))
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
            medians=(
                {
                    "sup_h_p": float(np.median(sup_pow)),
                    "int_v_beta_p2": float(np.median(int_pow)),
                    "mixed": float(np.median(mix)),
                }
                if p >= 4.0
                else None
            ),
            ratio=(est_sup + est_int) / (1.0 + x0_h**p),
            truncated_paths=truncated,
        )
        out.append(stats)
    return out


# ---------------------------------------------------------------------------
# discrete energy identity
# ---------------------------------------------------------------------------


@dataclass
class ResidualSeries:
    """Per-step and per-jump residuals of the squared-norm balance.

    Per jump entry the balance is the polarization identity
    ‖y+γ‖² − ‖y‖² = 2(γ, y) + ‖γ‖² with γ the applied jump; evaluated in
    exact rational arithmetic it vanishes identically, so any nonzero value
    flags a corrupted record.  Per step the residual collects the drift,
    Wiener-compensator and jump-compensator mismatches and is O(dt).
    """

    per_step: np.ndarray
    per_jump: np.ndarray
    total: float


def _jump_identity_residual(pre: np.ndarray, post: np.ndarray) -> float:
    acc = Fraction(0)
    for a, b in zip(pre, post):
        fa, fb = Fraction(float(a)), Fraction(float(b))
        g = fb - fa
        acc += fb * fb - fa * fa - 2 * g * fa - g * g
    return float(acc)


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
    config: SolverConfig | None = None,
) -> list[ResidualSeries]:
    """Replay the squared-H-norm balance along recorded paths, one series each.

    Each step compares Δ‖Y‖² against 2⟨A, Y⟩ dt + ‖B‖_{L2}² dt + 2(B ΔW, Y)
    plus the jump quadratic-variation and compensated-martingale terms; the
    drift pairing is evaluated at the same point the scheme used (implicit
    endpoint or tamed start, and both halved substeps where the solver's
    retry took them).  The records must share one step grid.  Time is a
    batch axis: a chunk of C steps stacks the grid states and Wiener
    increments of every path into (C, P, m) arrays, flattened to one row per
    (step, path) whose ``t`` is the step's start time, and makes one call
    per coefficient and one ``jump`` call per mark for the compensator.  A
    chunk holds at most ``AUDIT_BATCH_ROWS`` rows (16 steps of an 8-path
    batch, 128 steps of one path).  Pairings go through ``dot_rows`` and
    Hilbert-Schmidt sums through ``sum_squares``, so a path's series has the
    bits of its replay alone, step by step at scalar times.  Recorded jumps
    are checked one by one, before the chunks: each must reproduce
    bit-exactly from ``bundle.jump``.  Marks and compensator weights come
    from ``bundle.mark_space``, the measure the solver drew the jumps from.
    A step whose drift solve fails even on the halved retry, which cannot
    happen on a record the solver finished, gets a NaN residual.
    """
    mark_space = bundle.mark_space
    records, realizations = list(records), list(realizations)
    if len(records) != len(realizations):
        raise ValueError("need one realization per record")
    if not records:
        return []
    first = records[0]
    if config is None:
        config = SolverConfig(dt=first.dt, T=first.T, level=first.level)
    m, dt, T = first.level, first.dt, first.T
    n_steps = round((first.times[-1] - first.times[0]) / dt)
    grid_t = None
    grid_states = []
    jumps_at: dict[int, list] = {}  # step -> (path, pre, post, event), in time order per path
    for p, (record, realization) in enumerate(zip(records, realizations)):
        if abs(realization.dt - record.dt) > 1e-12 or realization.m < record.level:
            raise ValueError("realization does not match the record grid")
        if record.seed is not None and realization.seed != record.seed:
            raise ValueError("realization seed does not match the record")
        if record.truncated_at is not None or record.stopped_at is not None:
            raise ValueError("residual replay needs the full record, not a truncated one")
        times = record.times
        states = np.asarray(record.states, dtype=float)
        if states.shape != (times.size, record.level) or not np.all(np.isfinite(states)):
            raise ValueError(f"record states must be finite with shape ({times.size}, {record.level})")
        evs = [ev for ev in realization.jumps if ev.time <= record.T]
        if record.n_jump_entries != len(evs):
            raise ValueError("record jump entries do not match the realization")
        ks = step_index([ev.time for ev in evs], record.T, record.dt).astype(int)
        counts = np.bincount(ks, minlength=round((times[-1] - times[0]) / record.dt))
        # grid row k follows the (pre, post) rows of the jumps of earlier steps
        rows = np.arange(counts.size + 1) + 2 * np.concatenate(([0], np.cumsum(counts)))
        if grid_t is None:
            grid_t = times[rows]
        if ((record.level, record.dt, record.T) != (m, dt, T) or counts.size != n_steps
                or not np.array_equal(times[rows], grid_t)):
            raise ValueError("records must share one step grid")
        grid_states.append(states[rows])
        # the path's jump i, in step k, has its pre row at k + 1 + 2i
        for i, (k, ev) in enumerate(zip(ks.tolist(), evs)):
            jumps_at.setdefault(k, []).append((p, states[k + 1 + 2 * i], states[k + 2 + 2 * i], ev))

    n_paths = len(records)
    wiener = [real.wiener[:n_steps, :m] for real in realizations]

    jump_terms = np.zeros((n_steps, n_paths))
    per_jump = [[] for _ in range(n_paths)]
    for k in sorted(jumps_at):
        for p, pre, post, ev in jumps_at[k]:
            # bit-exact replay: the recorded jump must reproduce from the bundle
            z = float(mark_space.marks[ev.mark_index])
            g_check = np.asarray(bundle.jump(ev.time, pre, z), dtype=float)
            if not np.array_equal(pre + g_check, post):
                raise ValueError(f"jump at t={ev.time} does not replay bit-exactly")
            g = post - pre
            jump_terms[k, p] += float(np.dot(g, g)) + 2.0 * float(np.dot(g, pre))
            per_jump[p].append(_jump_identity_residual(pre, post))

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
    per_step = per_step.T.copy()

    out = []
    for steps, pj in zip(per_step, per_jump):
        pj = np.asarray(pj) if pj else np.zeros(0)
        out.append(ResidualSeries(per_step=steps, per_jump=pj, total=float(steps.sum() + pj.sum())))
    return out


def _residual_worker(ctx, task: int):
    # the replay needs each path's realization, so the batch is solved on it;
    # a truncated path has no balance to replay and keeps a NaN total
    bundle, triple, x0, configs, batches = ctx
    config, seeds = configs[task // len(batches)], batches[task % len(batches)]
    noise = [sample_noise(config.level, config.T, config.dt, bundle.mark_space, s) for s in seeds]
    records = solve_paths(bundle, triple, x0, config, seeds, noise=noise)
    whole = [p for p, rec in enumerate(records) if rec.truncated_at is None]
    series = discrete_energy_residuals([records[p] for p in whole], bundle,
                                       [noise[p] for p in whole], config)
    totals = [float("nan")] * len(records)
    for p, s in zip(whole, series):
        totals[p] = s.total
    return totals


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
    solver config; NaN where a path was truncated.  Every (config, batch)
    pair is one task."""
    configs = list(configs)
    batches = batch_seeds(seed, n_paths)
    ctx = (bundle, triple, np.asarray(x0, dtype=float), configs, batches)
    per_task = map_indexed(_residual_worker, ctx, len(configs) * len(batches), workers)
    return np.reshape([t for batch in per_task for t in batch], (len(configs), n_paths))


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
    ratio = delta / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9:
        raise ValueError(f"delta={delta} is not a positive multiple of dt={dt}")
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
    grids = [paths[p].step_grid_view() for p in whole]
    times0 = grids[0][0]
    dt = paths[whole[0]].dt
    for tms, _ in grids[1:]:
        if tms.shape != times0.shape or not np.allclose(tms, times0):
            raise ValueError("paths must share a common step grid")
    states = np.stack([g[1] for g in grids])  # (paths, K+1, m)
    n_nodes = states.shape[1]
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
                         truncated_paths=int(np.isnan(rows).any(axis=0).sum()))


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


def _modulus_worker(ctx, b: int):
    bundle, triple, x0, config, deltas, beta_exp, batches = ctx
    records = solve_paths(bundle, triple, x0, config, batches[b])
    return _modulus_rows(records, deltas, beta_exp)


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
    batches = batch_seeds(seed, n_paths)
    ctx = (bundle, triple, np.asarray(x0, dtype=float), config, deltas, beta_exp, batches)
    rows = np.concatenate(map_indexed(_modulus_worker, ctx, len(batches), workers), axis=1)
    return _modulus_result(deltas, rows, beta_exp)
