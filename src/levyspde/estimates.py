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

from .coefficients import CoefficientBundle
from .noise import MarkSpace, NoiseRealization, ci99, step_index
from .parallel import map_indexed
from .rng import path_seed
from .solver import PathRecord, SolverConfig, _implicit_update, solve_paths
from .spaces import GelfandTriple

__all__ = [
    "EnergyStats",
    "energy_estimate_mc",
    "energy_table",
    "ResidualSeries",
    "discrete_energy_residual",
    "ModulusResult",
    "modulus_of_continuity",
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


def _energy_parts(record: PathRecord, p_list, beta: float):
    """(sup_t ‖Y‖_H, ∫‖Y‖_V^β dt, [∫‖Y‖_V^β ‖Y‖_H^{p-2} dt for p in p_list])."""
    dts = np.diff(record.times)
    vb = record.norm_v[:-1] ** beta
    mixed = [float(np.dot(vb * record.norm_h[:-1] ** (p - 2.0), dts)) for p in p_list]
    return float(record.norm_h.max()), float(np.dot(vb, dts)), mixed


def path_energy_functionals(record: PathRecord, p: float, beta: float):
    """(sup_t ‖Y‖_H^p, (∫‖Y‖_V^β dt)^{p/2}, ∫‖Y‖_V^β ‖Y‖_H^{p-2} dt).

    The sup runs over every recorded entry including jump post-values; the
    integrals are left-Riemann sums over the record's time partition.
    """
    sup_h, int_v, (mixed,) = _energy_parts(record, [p], beta)
    return sup_h**p, int_v ** (p / 2.0), mixed


def _energy_batch_worker(ctx, b: int):
    # a truncated path has no estimate of its own: it turns the ensemble's
    # figures into NaN, so the study fails instead of averaging a prefix
    bundle, triple, x0, config, seed, n_paths, p_list, beta, batch = ctx
    seeds = [path_seed(seed, i) for i in range(b * batch, min((b + 1) * batch, n_paths))]
    records = solve_paths(bundle, triple, x0, config, bundle.mark_space, seeds, keep_states=False)
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
    """One ensemble, all requested moment orders; see ``energy_estimate_mc``."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    p_list = [float(p) for p in p_list]
    if any(p < 2.0 for p in p_list):
        raise ValueError("moment orders must satisfy p >= 2")
    x0 = np.asarray(x0, dtype=float)
    ctx = (bundle, triple, x0, config, seed, n_paths, p_list, beta, ENERGY_BATCH)
    batches = map_indexed(_energy_batch_worker, ctx, -(-n_paths // ENERGY_BATCH), workers)
    rows = [row for batch in batches for row in batch]
    sup_h = np.array([r[0] for r in rows])
    int_v = np.array([r[1] for r in rows])
    mixed = np.array([r[2] for r in rows])  # (n_paths, len(p_list))

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
        )
        out.append(stats)
    return out


def energy_estimate_mc(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    p: float,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    beta: float = 2.0,
    workers: int = 1,
) -> EnergyStats:
    """Ensemble estimates of the energy functionals at moment order p."""
    return energy_table(bundle, triple, x0, [p], config, n_paths, seed, beta, workers)[0]


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


def discrete_energy_residual(
    record: PathRecord,
    bundle: CoefficientBundle,
    realization: NoiseRealization,
    mark_space: MarkSpace,
    config: SolverConfig | None = None,
) -> ResidualSeries:
    """Replay the squared-H-norm balance along a recorded path.

    The step contribution compares Δ‖Y‖² against
    2⟨A, Y⟩ dt + ‖B‖_{L2}² dt + 2(B ΔW, Y) plus the jump quadratic-variation
    and compensated-martingale terms; the drift pairing is evaluated at the
    same point the scheme used (implicit endpoint or tamed start).
    """
    if config is None:
        config = SolverConfig(dt=record.dt, T=record.T, level=record.level)
    if abs(realization.dt - record.dt) > 1e-12 or realization.m < record.level:
        raise ValueError("realization does not match the record grid")
    if record.seed is not None and realization.seed != record.seed:
        raise ValueError("realization seed does not match the record")

    if record.truncated_at is not None or record.stopped_at is not None:
        raise ValueError("residual replay needs the full record, not a truncated one")
    m = record.level
    times = record.times
    states = np.asarray(record.states, dtype=float)
    if states.shape != (times.size, m) or not np.all(np.isfinite(states)):
        raise ValueError(f"record states must be finite with shape ({times.size}, {m})")
    jumps = [ev for ev in realization.jumps if ev.time <= record.T]
    if record.n_jump_entries != len(jumps):
        raise ValueError("record jump entries do not match the realization")
    jumps_per_step = np.bincount(
        step_index([ev.time for ev in jumps], record.T, record.dt).astype(int),
        minlength=round((times[-1] - times[0]) / record.dt),
    )

    dt = record.dt
    per_step = []
    per_jump = []
    idx = 0
    j_ptr = 0
    for k, n_jumps in enumerate(jumps_per_step.tolist()):
        t = times[idx]
        x = states[idx]
        end_idx = idx + 1 + 2 * n_jumps
        x_next = states[end_idx]

        # the drift pairing is evaluated where the scheme evaluated the drift
        if config.scheme == "drift_implicit":
            y1 = _implicit_update(bundle, x, t, dt, config)
            a_eval = np.asarray(bundle.drift(t + dt, y1), dtype=float)
            drift_term = 2.0 * float(np.dot(a_eval, y1)) * dt
        else:
            a_eval = np.asarray(bundle.drift(t, x), dtype=float)
            drift_term = 2.0 * float(np.dot(a_eval, x)) * dt

        b = np.asarray(bundle.diffusion(t, x), dtype=float)
        dW = realization.wiener[k, :m]
        wiener_terms = float(np.sum(b * b)) * dt + 2.0 * float(np.dot(b @ dW, x))

        jump_terms = 0.0
        comp_term = 0.0
        for ev, pre, post in zip(jumps[j_ptr : j_ptr + n_jumps], states[idx + 1 : end_idx : 2],
                                 states[idx + 2 : end_idx + 1 : 2]):
            # bit-exact replay: the recorded jump must reproduce from the bundle
            z = float(mark_space.marks[ev.mark_index])
            g_check = np.asarray(bundle.jump(ev.time, pre, z), dtype=float)
            if not np.array_equal(pre + g_check, post):
                raise ValueError(f"jump at t={ev.time} does not replay bit-exactly")
            g = post - pre
            jump_terms += float(np.dot(g, g)) + 2.0 * float(np.dot(g, pre))
            per_jump.append(_jump_identity_residual(pre, post))
        j_ptr += n_jumps
        if not mark_space.is_zero:
            for z, lam in zip(mark_space.marks, mark_space.weights):
                gz = np.asarray(bundle.jump(t, x, float(z)), dtype=float)
                comp_term += lam * 2.0 * float(np.dot(gz, x))
            comp_term *= dt

        delta_sq = float(np.dot(x_next, x_next)) - float(np.dot(x, x))
        per_step.append(delta_sq - (drift_term + wiener_terms + jump_terms - comp_term))
        idx = end_idx

    per_step = np.asarray(per_step)
    per_jump = np.asarray(per_jump) if per_jump else np.zeros(0)
    return ResidualSeries(
        per_step=per_step,
        per_jump=per_jump,
        total=float(per_step.sum() + per_jump.sum()),
    )


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


def modulus_of_continuity(paths, delta_list, beta_exp: float) -> ModulusResult:
    """Tightness-style diagnostic: the increment table over time shifts δ.

    ``paths`` is a list of PathRecords sharing one uniform step grid; each
    δ must be a grid multiple.  The verdict only says the table decreases
    toward zero within its CIs as δ decreases; it is a diagnostic, not a
    proof of tightness.
    """
    if not paths:
        raise ValueError("need at least one path")
    if any(rec.truncated_at is not None for rec in paths):
        # a truncated path has no increments over the whole horizon
        undefined = np.full(len(delta_list), np.nan)
        return ModulusResult(
            deltas=np.asarray(sorted(float(d) for d in delta_list)),
            values=undefined,
            ci99=undefined.copy(),
            beta=beta_exp,
            consistent_with_tightness=False,
            label="undefined: a path was truncated (diagnostic, not a proof)",
        )
    grids = [rec.step_grid_view() for rec in paths]
    times0 = grids[0][0]
    dt = paths[0].dt
    for tms, _ in grids[1:]:
        if tms.shape != times0.shape or not np.allclose(tms, times0):
            raise ValueError("paths must share a common step grid")
    states = np.stack([g[1] for g in grids])  # (n_paths, K+1, m)
    n_paths, n_nodes, _ = states.shape

    deltas = np.asarray(sorted(float(d) for d in delta_list))
    values = np.empty(deltas.size)
    ci = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        steps = delta_steps(d, dt, n_nodes - 1)
        diff = states[:, steps:, :] - states[:, : n_nodes - steps, :]
        norms = np.sqrt(np.einsum("pkm,pkm->pk", diff, diff))
        # left-Riemann over t in [0, T - δ): nodes 0 .. K - steps - 1
        per_path = (norms[:, :-1] ** beta_exp).sum(axis=1) * dt if norms.shape[1] > 1 else np.zeros(n_paths)
        values[i] = float(per_path.mean())
        ci[i] = ci99(per_path)

    ok = True
    for i in range(deltas.size - 1):
        if values[i] > values[i + 1] + ci[i] + ci[i + 1]:
            ok = False
    label = (
        "consistent with tightness (diagnostic, not a proof)"
        if ok
        else "not consistent with a vanishing modulus (diagnostic, not a proof)"
    )
    return ModulusResult(
        deltas=deltas,
        values=values,
        ci99=ci,
        beta=beta_exp,
        consistent_with_tightness=ok,
        label=label,
    )
