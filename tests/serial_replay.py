"""Serial reference copy of the squared-norm balance replay, one path and one
state per coefficient call.

This is the replay as it was before ``estimates.discrete_energy_residuals``
evaluated each step of a whole batch in one coefficient call.
``test_estimates`` runs it next to the batched replay and requires each
path's per-step residuals, the batched replay's row for that path, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from levyspde.noise import step_index
from levyspde.solver import SolverConfig, _newton_rows


def _implicit_update(bundle, x, t, dt, config):
    """Backward Euler drift substep y = x + dt A(t + dt, y) of one state x (m,)."""
    if bundle.drift_implicit_solve is not None:
        return np.asarray(bundle.drift_implicit_solve(t + dt, x, dt), dtype=float)
    y, failed = _newton_rows(bundle, x[None], t + dt, dt, config)
    if failed:
        raise failed[0]
    return y[0]


def discrete_energy_residual(record, bundle, realization, config=None) -> np.ndarray:
    """Replay the squared-H-norm balance along one recorded path, step by step:
    its (steps,) per-step residuals."""
    mark_space = bundle.mark_space
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
    idx = 0
    j_ptr = 0
    for k, n_jumps in enumerate(jumps_per_step.tolist()):
        t = times[idx]
        x = states[idx]
        end_idx = idx + 1 + 2 * n_jumps
        x_next = states[end_idx]

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
            z = float(mark_space.marks[ev.mark_index])
            g_check = np.asarray(bundle.jump(ev.time, pre, z), dtype=float)
            if not np.array_equal(pre + g_check, post):
                raise ValueError(f"jump at t={ev.time} does not replay bit-exactly")
            g = post - pre
            jump_terms += float(np.dot(g, g)) + 2.0 * float(np.dot(g, pre))
        j_ptr += n_jumps
        if not mark_space.is_zero:
            for z, lam in zip(mark_space.marks, mark_space.weights):
                gz = np.asarray(bundle.jump(t, x, float(z)), dtype=float)
                comp_term += lam * 2.0 * float(np.dot(gz, x))
            comp_term *= dt

        delta_sq = float(np.dot(x_next, x_next)) - float(np.dot(x, x))
        per_step.append(delta_sq - (drift_term + wiener_terms + jump_terms - comp_term))
        idx = end_idx

    return np.asarray(per_step)
