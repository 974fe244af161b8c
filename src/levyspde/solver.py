"""Time stepping for the Galerkin jump-diffusion system.

One step on [t, t+dt] splits the dynamics as

1. drift update, backward Euler ``y = x + dt A(t+dt, y)`` solved by damped
   Newton (or a tamed explicit update ``x + dt a / (1 + dt ‖a‖_{V*})`` for
   mild drifts),
2. Wiener increment ``+ B(t, x) ΔW`` with the start-of-step state,
3. the step's jump events applied sequentially at their exact times, each
   evaluated at the pre-jump state,
4. compensator subtraction ``- dt Σ_i lam_i γ(t, x, z_i)`` with the
   start-of-step state (predictable evaluation).

Jump times are never aligned to the grid; each one contributes a doubled
time entry (pre value, post value) to the path record, which keeps the
recorded trajectory an explicit cadlag skeleton.

One stepping core advances an ensemble of P paths as a (P, m) array
(``solve_paths``); a single path (``solve_path``) is its P = 1 case.  Each
path draws its noise from its own seed, or takes it from a given
realization (``noise=``): the level then consumes the realization's first m
Wiener modes and its jump list, which is how the studies replay a path, pair
it with a reordered copy or nest the levels of a Galerkin hierarchy.  The
damped Newton of step 1 runs per batch: one drift call for the residual and
one Jacobian call on the rows still iterating, a stacked linear solve and a
line search with a step per row.  Per-row masks retire the converged rows
and send the stalled ones, together, to one retry with two halved drift
substeps.  Every row does exactly the arithmetic it would do alone, so a
path's record does not depend on the batch it ran in.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientBundle
from .noise import grid_steps, grid_times, sample_jumps, step_index, wiener_chunks
from .spaces import GelfandTriple, dot_rows

__all__ = [
    "SolverConfig",
    "StoppingTimeRule",
    "PathRecord",
    "StepFailure",
    "solve_path",
    "solve_paths",
    "apply_stopping",
]

#: (step, path) rows of Wiener increments an ensemble solve draws and holds
#: at a time; a chunk spans ``max(1, WIENER_ROWS // P)`` steps of P paths
WIENER_ROWS = 1024


class StepFailure(RuntimeError):
    """Implicit solve did not converge; carries the last residual norm."""

    def __init__(self, time: float, residual: float, iterations: int):
        super().__init__(
            f"implicit drift solve at t={time} stalled after {iterations} "
            f"iterations (residual {residual:.3e})"
        )
        self.time = time
        self.residual = residual
        self.iterations = iterations


class SolverFieldError(ValueError):
    """A ``SolverConfig`` value outside its range; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    level: int
    scheme: str = "drift_implicit"  # or "tamed_explicit"; taming exponent is 1
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.T <= 0:
            raise SolverFieldError("T", "need 0 < dt < T")
        if self.dt <= 0 or self.dt >= self.T:
            raise SolverFieldError("dt", "need 0 < dt < T")
        if self.level <= 0:
            raise SolverFieldError("level", "level must be positive")
        if self.newton_tol <= 0:
            raise SolverFieldError("newton_tol", "newton_tol must be positive")
        iters = self.newton_max_iter
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise SolverFieldError("newton_max_iter",
                                   f"newton_max_iter must be an integer >= 1, got {iters!r}")
        if self.scheme not in ("drift_implicit", "tamed_explicit"):
            raise SolverFieldError("scheme", f"unknown scheme {self.scheme!r}")
        try:
            grid_steps(self.T, self.dt)
        except ValueError as exc:
            raise SolverFieldError("dt", str(exc)) from None

    @property
    def n_steps(self) -> int:
        return grid_steps(self.T, self.dt)


@dataclass(frozen=True)
class StoppingTimeRule:
    """Truncate at the first time ‖Y‖_H² or the running V-energy exceeds N."""

    N: float

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("threshold N must be positive")


@dataclass
class PathRecord:
    """Cadlag discrete trajectory with jump markers and per-time norms.

    Jump times appear twice (pre and post value); between consecutive jump
    entries times strictly increase.  ``is_grid`` marks the rows on the
    uniform step grid, as the solver recorded them.
    ``stopped_at`` is set by ``apply_stopping``.  ``truncated_at`` marks a
    step whose drift solve failed (the record ends at that step's start) or
    the first non-finite state or norm (the record ends just before it).
    ``states`` is None for an ensemble solve that kept only the norms.
    """

    times: np.ndarray
    states: np.ndarray | None  # (n_entries, level)
    is_jump_post: np.ndarray
    is_grid: np.ndarray
    norm_h: np.ndarray
    norm_v: np.ndarray
    level: int
    dt: float
    T: float
    seed: int | None = None
    stopped_at: float | None = None
    truncated_at: float | None = None

    @property
    def n_jump_entries(self) -> int:
        return int(self.is_jump_post.sum())

    def prefix(self, rows: int, **changes) -> PathRecord:
        """A copy of the first ``rows`` entries, with ``changes`` to the other
        fields: the one cut that ends a record early (``truncated_at``,
        ``stopped_at``)."""
        cut = {name: None if (a := getattr(self, name)) is None else a[:rows].copy()
               for name in ("times", "states", "is_jump_post", "is_grid", "norm_h", "norm_v")}
        return replace(self, **cut, **changes)


def _lost_paths(records, n_paths: int) -> np.ndarray:
    """Whether each of ``n_paths`` paths has a truncated record; ``records``
    holds one block of ``n_paths`` records, in path order, per solver row of
    a path (a pair's two members, a depend path's starts, a level)."""
    return np.array([rec.truncated_at is not None for rec in records]).reshape(-1, n_paths).any(axis=0)


def _truncated_rows(rows) -> int:
    """The paths that truncation lost among ``rows``, one row (or entry) per
    path as ``parallel.path_rows`` returns them: every path study makes a
    path with a truncated record a row with NaN, and only such a path."""
    return int(np.isnan(rows.reshape(len(rows), -1)).any(axis=1).sum())


def _shared_step_grid(records) -> np.ndarray:
    """The step-grid times that every record shares; ValueError unless each
    has the first one's level, dt and T and exactly its grid times."""
    first = records[0]
    times = first.times[first.is_grid]
    for rec in records[1:]:
        if ((rec.level, rec.dt, rec.T) != (first.level, first.dt, first.T)
                or not np.array_equal(rec.times[rec.is_grid], times)):
            raise ValueError("records must share one step grid")
    return times


def _per_row(t) -> bool:
    """Whether ``t`` holds one time per row; a type check, as ``np.ndim`` on a
    float costs microseconds and the stepping asks once per drift solve."""
    return isinstance(t, np.ndarray) and t.ndim > 0


def _newton_rows(bundle: CoefficientBundle, x: np.ndarray, t_next, dt: float,
                 config: SolverConfig):
    """Damped Newton for y - dt A(t_next, y) = x, each row of x (R, m) on its own.

    ``t_next`` is one time for every row, or an (R, 1) array of one time per
    row.  The residual, the Jacobian and the linear solve take all rows still
    iterating in one call, and each row does exactly the arithmetic of a lone
    solve.  A row's step is halved up to 30 times until its residual norm is
    finite and lower.  Returns (y, {row: StepFailure}); a failed row of y is
    meaningless, and its failure carries the row's own time.
    """
    m = x.shape[-1]
    per_row = _per_row(t_next)
    tol = config.newton_tol * (1.0 + np.sqrt(dot_rows(x, x)))

    def residual(y, rows):
        t = t_next[rows] if per_row else t_next
        return y - dt * np.asarray(bundle.drift(t, y), dtype=float) - x[rows]

    def failure(r, iterations):
        t = float(t_next[r, 0]) if per_row else t_next
        return StepFailure(time=t, residual=float(nf[r]), iterations=iterations)

    y = x.copy()
    f = residual(y, slice(None))
    nf = np.sqrt(dot_rows(f, f))
    n_rows = x.shape[0]
    live = np.arange(n_rows)
    failed = {}
    eye = np.eye(m)
    for it in range(config.newton_max_iter):
        live = live[~(nf[live] < tol[live])]
        if live.size == 0:
            break
        # a slice while every row iterates, so no row is gathered
        at = slice(None) if live.size == n_rows else live
        t_live = t_next[at] if per_row else t_next
        if bundle.drift_jacobian is not None:
            ja = np.asarray(bundle.drift_jacobian(t_live, y[at]), dtype=float)
        else:
            ja = _fd_jacobian(bundle, y[at], t_live)
        delta = _solve_rows(eye - dt * ja, -f[at])
        # every row still searching has had its step halved the same number
        # of times, so one step length s serves them all
        s = 1.0
        search = np.arange(live.size)  # positions in ``live`` still searching
        rows, step = at, delta
        for _ in range(30):
            y_trial = y[rows] + step if s == 1.0 else y[rows] + s * step  # 1.0 * step is step
            f_trial = residual(y_trial, rows)
            nf_trial = np.sqrt(dot_rows(f_trial, f_trial))
            ok = np.isfinite(nf_trial) & (nf_trial < nf[rows])
            if ok.all():
                # every searching row accepts: take the step without masks
                if isinstance(rows, slice):
                    y, f, nf = y_trial, f_trial, nf_trial
                else:
                    y[rows], f[rows], nf[rows] = y_trial, f_trial, nf_trial
                search = search[:0]
                break
            accepted = live[search[ok]]
            y[accepted], f[accepted], nf[accepted] = y_trial[ok], f_trial[ok], nf_trial[ok]
            search = search[~ok]
            rows, step = live[search], delta[search]
            s *= 0.5
        if search.size:
            for r in live[search].tolist():
                failed[r] = failure(r, it + 1)
            live = np.delete(live, search)
    for r in live[~(nf[live] < tol[live])].tolist():
        failed[r] = failure(r, config.newton_max_iter)
    return y, failed


def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """delta[r] with jac[r] delta[r] = rhs[r]; least squares for a singular row."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            try:
                out[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                out[r] = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
        return out


def _fd_jacobian(bundle: CoefficientBundle, y: np.ndarray, t) -> np.ndarray:
    """Forward differences of the drift at each row of y (R, m); y_j moves alone.

    ``t`` is one time, or an (R, 1) array of one time per row.
    """
    m = y.shape[-1]
    base = np.asarray(bundle.drift(t, y), dtype=float)
    h = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(y))
    moved = np.repeat(y[:, None, :], m, axis=1)
    moved[:, np.arange(m), np.arange(m)] += h
    t_moved = t[:, None] if _per_row(t) else t  # (R, 1, 1): one time per moved row
    diff = np.asarray(bundle.drift(t_moved, moved), dtype=float) - base[:, None, :]
    return np.swapaxes(diff / h[:, :, None], -1, -2)


def _drift_update(bundle, triple, x, t, dt, config):
    """Drift substep of the rows of x (R, m); returns (y, {row: StepFailure})."""
    if config.scheme == "tamed_explicit":
        a = np.asarray(bundle.drift(t, x), dtype=float)
        norm_vstar = np.sqrt(dot_rows(a / triple.v_weights[: x.shape[-1]], a))
        return x + dt * a / (1.0 + dt * norm_vstar)[:, None], {}
    return _newton_rows(bundle, x, t + dt, dt, config)


def _drift_rows(bundle, triple, x, t, dt, config, dead=frozenset()):
    """Drift substep of every row of x (P, m) from the time ``t``, one time for
    every row or an (P, 1) array of one per row.

    The closed-form implicit solve takes the whole batch.  Otherwise the live
    rows take one batched substep; the rows that stall retry together with
    two halved drift substeps, and a row that fails both is reported (its
    row of y is meaningless).  Returns (y, {row: StepFailure}, {row: midpoint
    state of a retried row that the halved substeps recovered}).
    """
    if config.scheme == "drift_implicit" and bundle.drift_implicit_solve is not None:
        return np.asarray(bundle.drift_implicit_solve(t + dt, x, dt), dtype=float), {}, {}
    y = x.copy()
    rows = np.delete(np.arange(x.shape[0]), list(dead))
    if rows.size == 0:
        return y, {}, {}
    per_row = _per_row(t)
    at = rows if dead else slice(None)  # a slice while no row is dead: nothing gathered
    y[at], stalled = _drift_update(bundle, triple, x[at], t[at] if per_row else t, dt, config)
    if not stalled:
        return y, {}, {}
    retry = rows[list(stalled)]
    t_retry = t[retry] if per_row else t
    half, stalled = _drift_update(bundle, triple, x[retry], t_retry, dt / 2.0, config)
    failed = {int(retry[j]): exc for j, exc in stalled.items()}
    ok = np.array([j for j in range(retry.size) if j not in stalled], dtype=int)
    if ok.size:
        t_ok = t_retry[ok] if per_row else t_retry
        y[retry[ok]], stalled = _drift_update(
            bundle, triple, half[ok], t_ok + dt / 2.0, dt / 2.0, config
        )
        failed.update({int(retry[ok[j]]): exc for j, exc in stalled.items()})
    midpoints = {int(retry[j]): half[j] for j in ok.tolist() if int(retry[j]) not in failed}
    return y, failed, midpoints


def _step_rows(x, t, dt, bundle, triple, dw, events, config, dead=frozenset()):
    """One step of every row of x (P, m) over [t, t+dt].

    ``dw`` holds the rows' Wiener increments (P, m); ``events`` lists
    (row, JumpEvent) pairs, in time order within each row.  Rows in ``dead``
    and rows whose drift solve failed get no jumps, and their end states are
    meaningless.  Returns (end states, [(row, tau, pre, post), ...], failed).
    """
    y, failed, _ = _drift_rows(bundle, triple, x, t, dt, config, dead)
    y = y + bundle.apply_diffusion(t, x, dw)
    entries = []
    for p, ev in events:
        if not (t < ev.time <= t + dt + 1e-12 * max(1.0, t + dt)):
            raise ValueError(f"jump at {ev.time} outside step ({t}, {t + dt}]")
        if p in dead or p in failed:
            continue
        z = float(bundle.mark_space.marks[ev.mark_index])
        pre = y[p].copy()
        g = np.asarray(bundle.jump(ev.time, pre, z), dtype=float)
        y[p] = pre + g
        entries.append((p, ev.time, pre, y[p].copy()))
    if not bundle.mark_space.is_zero:
        y = y - dt * bundle.compensator_density(t, x)
    return y, entries, failed


def _norms(bundle: CoefficientBundle, triple: GelfandTriple, states: np.ndarray):
    """(‖u‖_H, ‖u‖_V) of each row of ``states`` (..., m).  A norm that
    overflows is inf, which truncates the record, so the overflow is not
    also warned about."""
    shape, m = states.shape[:-1], states.shape[-1]
    flat = states.reshape(-1, m)
    with np.errstate(over="ignore"):
        norm_h = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        if bundle.v_norm is None:
            w = triple.v_weights[:m]
            norm_v = np.sqrt(np.einsum("ij,ij->i", flat * w, flat))
        else:
            norm_v = np.asarray(bundle.v_norm(flat), dtype=float)
    return norm_h.reshape(shape), norm_v.reshape(shape)


def _solve(bundle, triple, x0, config, seeds, chunks, jumps, keep_states, on_grid=None):
    """The stepping core: P = len(seeds) paths as one (P, m) array.

    ``x0`` is the shared initial datum (m0,) or one row per path (P, m0);
    ``chunks`` yields the Wiener increments in time chunks of shape
    (steps, P, m); ``jumps[p]`` is path p's time-sorted event list.
    ``on_grid(k, block)`` receives the grid states k .. k + len(block) - 1
    of every path as each chunk is finished.
    """
    m, dt, n_steps = config.level, config.dt, config.n_steps
    if m > triple.dimension_cap:
        raise ValueError(f"level {m} exceeds dimension_cap {triple.dimension_cap}")
    n_paths = len(seeds)
    x0 = np.asarray(x0, dtype=float)
    x = np.stack([triple.project(row, m).coeffs
                  for row in np.broadcast_to(x0, (n_paths, x0.shape[-1]))])

    grid = grid_times(config.T, dt)
    events_at: dict[int, list] = {}
    for p, evs in enumerate(jumps):
        ks = step_index([ev.time for ev in evs], config.T, dt)
        for k, ev in zip(ks.tolist(), evs):
            events_at.setdefault(k, []).append((p, ev))

    norm_h = np.empty((n_steps + 1, n_paths))
    norm_v = np.empty((n_steps + 1, n_paths))
    norm_h[0], norm_v[0] = _norms(bundle, triple, x)
    states = np.empty((n_steps + 1, n_paths, m)) if keep_states else None
    if keep_states:
        states[0] = x
    if on_grid is not None:
        on_grid(0, x[None])
    entries = [[] for _ in range(n_paths)]
    steps_done = [n_steps] * n_paths
    dead: set[int] = set()
    k = 0
    for chunk in chunks:
        k0 = k
        block = states[k0 + 1 : k0 + 1 + len(chunk)] if keep_states else np.empty((len(chunk), n_paths, m))
        for i, dw in enumerate(chunk):
            y, step_entries, failed = _step_rows(
                x, k * dt, dt, bundle, triple, dw, events_at.get(k, ()), config, dead
            )
            for p, tau, pre, post in step_entries:
                entries[p].append((k, tau, pre, post))
            for p in failed:
                steps_done[p] = k
                dead.add(p)
                y[p] = x[p]
            block[i] = y
            x = y
            k += 1
        norm_h[k0 + 1 : k + 1], norm_v[k0 + 1 : k + 1] = _norms(bundle, triple, block)
        if on_grid is not None:
            on_grid(k0 + 1, block)
    return [
        _record(bundle, triple, config, seeds[p], grid, norm_h[:, p], norm_v[:, p],
                None if states is None else states[:, p], entries[p], steps_done[p])
        for p in range(n_paths)
    ]


def _record_rows(ks: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A record's layout: the indices of its ``rows`` grid rows and of its
    jumps' pre rows, for jumps in the (sorted) steps ``ks``.  Grid row r
    follows the jumps of steps before r; step k's jumps follow grid row k,
    each as a (pre, post) pair, so jump i's pre row is k + 1 + 2i."""
    return np.arange(rows) + 2 * np.searchsorted(ks, np.arange(rows)), ks + 1 + 2 * np.arange(ks.size)


def _record(bundle, triple, config, seed, grid, grid_h, grid_v, grid_states, entries, steps_done):
    """Interleave one path's grid rows and jump rows into its PathRecord."""
    rows = steps_done + 1
    n_jumps = len(entries)
    ks = np.array([e[0] for e in entries], dtype=int)
    taus = np.repeat([e[1] for e in entries], 2)
    jump_states = np.array([s for e in entries for s in e[2:]]).reshape(2 * n_jumps, config.level)
    at_grid, at_pre = _record_rows(ks, rows)
    at_jump = np.stack([at_pre, at_pre + 1], axis=1).reshape(-1)
    n = rows + 2 * n_jumps

    times = np.empty(n)
    times[at_grid] = grid[:rows]
    times[at_jump] = taus
    jump_h, jump_v = _norms(bundle, triple, jump_states)
    norm_h = np.empty(n)
    norm_h[at_grid] = grid_h[:rows]
    norm_h[at_jump] = jump_h
    norm_v = np.empty(n)
    norm_v[at_grid] = grid_v[:rows]
    norm_v[at_jump] = jump_v
    is_grid = np.zeros(n, dtype=bool)
    is_grid[at_grid] = True
    is_jump_post = np.zeros(n, dtype=bool)
    is_jump_post[at_pre + 1] = True
    states = None
    if grid_states is not None:
        states = np.empty((n, config.level))
        states[at_grid] = grid_states[:rows]
        states[at_jump] = jump_states

    record = PathRecord(times=times, states=states, is_jump_post=is_jump_post, is_grid=is_grid, norm_h=norm_h,
                        norm_v=norm_v, level=config.level, dt=config.dt, T=config.T, seed=seed,
                        truncated_at=float(grid[steps_done]) if steps_done < config.n_steps else None)
    finite = np.isfinite(norm_h) & np.isfinite(norm_v)
    if finite.all():
        return record
    cut = int(np.argmin(finite))
    return record.prefix(cut, truncated_at=float(times[cut]))


def solve_path(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    config: SolverConfig,
    seed: int,
) -> PathRecord:
    """One path on [0, T] with its noise drawn from ``seed``:
    ``solve_paths(..., [seed])[0]``."""
    return solve_paths(bundle, triple, x0, config, [seed])[0]


def solve_paths(
    bundle: CoefficientBundle,
    triple: GelfandTriple,
    x0,
    config: SolverConfig,
    seeds,
    keep_states: bool = True,
    noise=None,
    on_grid=None,
) -> list[PathRecord]:
    """One record per seed, the paths advanced as one batch.

    ``x0`` is shared (m0,) or gives each path its own row (P, m0).  A path's
    record does not depend on the batch it ran in, and paths that repeat a
    seed share its noise.  Each path draws its Wiener increments from its
    own sub-stream and its jumps from ``bundle.mark_space``, the measure the
    compensator integrates against.  The batch steps through its Wiener
    increments in chunks of at most ``WIENER_ROWS`` (step, path) rows (one
    step when the batch is wider), so the whole-horizon noise is never held;
    a chunk only splits each path's stream, so its size moves no bit.
    ``noise``, when given, holds one realization per path on the solver's
    grid, with mark indices into that same measure: path p then consumes the
    first ``config.level`` Wiener modes of ``noise[p]`` and its jumps up to
    T, and ``seeds[p]`` only labels the record.  With ``keep_states=False``
    the records carry times and norms only.

    ``on_grid``, when given, is called as ``on_grid(k, block)`` with the
    grid states of every path: first ``k = 0`` and the initial rows (1, P,
    m), then, as each chunk is finished, the index of its first grid row
    and its states (steps, P, m).  A truncated path's rows past the end of
    its record are meaningless and may be non-finite.  The records then
    carry times and norms only, so a study can reduce the states as they
    come and keep none.
    """
    seeds = [int(s) for s in seeds]
    m, n_steps = config.level, config.n_steps
    chunk = max(1, WIENER_ROWS // len(seeds))
    if noise is None:
        chunks = wiener_chunks(seeds, m, n_steps, config.dt, chunk)
        jumps_of = {s: sample_jumps(config.T, bundle.mark_space, s) for s in dict.fromkeys(seeds)}
        jumps = [jumps_of[s] for s in seeds]
    else:
        for real in noise:
            real.check_covers(m, config.dt, config.T)
        wiener = [real.wiener[:n_steps, :m] for real in noise]
        chunks = (
            np.stack([w[k0 : k0 + chunk] for w in wiener], axis=1)
            for k0 in range(0, n_steps, chunk)
        )
        jumps = [tuple(ev for ev in real.jumps if ev.time <= config.T) for real in noise]
    return _solve(bundle, triple, x0, config, seeds, chunks, jumps,
                  keep_states and on_grid is None, on_grid)


def apply_stopping(record: PathRecord, rule: StoppingTimeRule, beta: float = 2.0):
    """Truncate at tau = first recorded time where ‖Y‖_H² > N or the
    left-Riemann accumulation of ‖Y‖_V^beta exceeds N; tau = T when the
    thresholds are never crossed on a whole record (void-set convention),
    and None when they are never crossed on a truncated one, which ends
    before T for another reason (at t = 0 it holds no time at all).
    """
    n = record.times.size
    cum = 0.0
    cut = None
    for k in range(n):
        if record.norm_h[k] ** 2 > rule.N or cum > rule.N:
            cut = k
            break
        if k + 1 < n:
            cum += record.norm_v[k] ** beta * (record.times[k + 1] - record.times[k])
    if cut is None:
        return record, None if record.truncated_at is not None else float(record.times[-1])
    tau = float(record.times[cut])
    return record.prefix(cut + 1, stopped_at=tau), tau
