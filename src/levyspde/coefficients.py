"""Coefficient bundles, hypothesis constants, and numerical auditors.

The auditors are sampled falsification checks, not proofs: each one draws
random states, evaluates both sides of the target inequality, and reports
the worst margin (RHS − LHS, so nonnegative means the inequality held) plus
the witness that attained it.  A short deterministic perturbation descent
refines the worst witness, since thin violation regions are easy to miss
with raw sampling.

Scans are batched: each sample row carries its own audit time as an (R, 1)
column, and a scan evaluates all its rows in one call per coefficient
(drift, the full diffusion matrix, jump per mark, rho, eta, v_norm) per
chunk of at most ``AUDIT_BATCH_ROWS`` states, the cap every batched call
keeps to bound memory (a call that stacks u and v takes half as many rows);
the hemicontinuity scan evaluates its fine grid the same way.
Every row keeps the bits of its 1-D call at its time as a float, so the
margins do not depend on the batching.  The descent evaluates its trials
at a float time through the same term functions, speculatively in batches:
each trial's step is fixed at its round's start, so one call evaluates a
window of the round's remaining trials from the current point, the first
one below the best margin is accepted, and the rest of the window is
evaluated again from there, which gives the serial accept sequence bit for
bit.  Each sample stream comes from one vectorised derivation per scan
(``rng.derive_rngs``).  A non-finite coefficient row
ends its entry's scan, and the entry fails with margin NaN and the
coefficient, the row's own t and its u as its witness; no audit raises for
it, and the other entries still run.

Inequality catalogue, by entry name:

* ``H1``        drift hemicontinuity along line segments
* ``H2``        local monotonicity with the noise terms and the rho/eta
                envelope (exponents zeta, beta)
* ``H2prime``   general local monotonicity with a ball-radius bound M_t(r)
* ``H2star``    part-II local monotonicity; envelope uses lambda_exp,
                theta_exp, zeta, alpha
* ``H3/H3star`` coercivity with constant L_A
* ``H4/H4star`` drift growth in the dual norm
* ``H5/H5star`` diffusion Hilbert-Schmidt growth (g, and L_B in part II)
* ``H6-p*``     jump growth per declared moment order p (L_gamma in part II)
* ``H5-continuity/H6-continuity`` sequential continuity along H-convergent
                test sequences u_k = u + 2^(-k) d
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .noise import MarkSpace
from .rng import derive_rngs
from .spaces import GelfandTriple, dot_rows, libm_pow, sum_squares

__all__ = [
    "CoefficientBundle",
    "HypothesisConstants",
    "HypothesisEntry",
    "HypothesisReport",
    "audit_hemicontinuity",
    "audit_local_monotonicity",
    "audit_coercivity_growth",
    "audit_sequential_continuity",
    "chi_exponent",
    "c1_of",
    "c2_of",
    "admissible_p_range",
    "PRangeResult",
]

#: scales for the Gaussian sampling of audit states; violations tend to sit
#: at large amplitudes or sparse directions, hence the spread plus the
#: axis-aligned extremes added in ``_sample_states``
AUDIT_SCALES = (0.1, 1.0, 10.0)

#: number of time points audited on the uniform grid over [0, horizon]
AUDIT_TIME_POINTS = 8

#: most state rows in one coefficient call of a scan or of the residual
#: replay; bounds the temporaries of grid models (each row holds several
#: grid-sized arrays)
AUDIT_BATCH_ROWS = 128


class AuditFailure(RuntimeError):
    """A coefficient evaluation returned a non-finite value during an audit.

    ``witness`` names the coefficient and holds the offending row's t and u.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class CoefficientBundle:
    """The coefficients (A, B, gamma) of the Galerkin system, on coefficient arrays.

    A state of H_m is its coefficient vector, so every callable takes the
    array ``u`` of shape (..., m): one state is a 1-D array, and leading
    axes hold a batch of states.  Each result keeps those leading axes:

    * ``drift(t, u)`` -> (..., m): the dual-space coordinates of A(t, u);
    * ``diffusion(t, u)`` -> (..., m, m): B(t, u) on the first m Wiener modes;
    * ``jump(t, u, z)`` -> (..., m): gamma(t, u, z) for the mark z.

    Optional fields:

    * ``rho(u)`` / ``eta(u)`` -> (...): the local-monotonicity functionals,
      required by the H2/H2star audits and the weighted stability study.
    * ``local_bound(t, r)``: M_t(r) for the H2prime audit (scalars).
    * ``v_norm(u)`` -> (...): the V-norm, when the model's V is not the
      diagonal weighted l2 space (beta != 2).
    * ``drift_jacobian(t, u)`` -> (..., m, m): dA/du for the Newton solves;
      finite differences of ``drift`` stand in without it.
    * Closed forms the solver uses in place of the general ones:
      ``drift_implicit_solve(t, x, dt)`` the y with y - dt A(t, y) = x,
      ``diffusion_matvec(t, u, dw)`` B(t, u) dw without the matrix, and
      ``jump_weighted_sum(t, u)`` the compensator density
      sum_i lam_i gamma(t, u, z_i); ``x``, ``u`` and ``dw`` are (..., m).

    A batch row's result must equal that row's 1-D call bit for bit, so a
    path's record does not depend on the batch it ran in.  On a grid the
    stacked product ``phi @ u[..., None]`` keeps that rule for every batch
    size; ``u @ phi.T`` and ``einsum`` change last bits with the batch size.

    The time ``t`` of ``drift``, ``drift_jacobian``, ``diffusion``, ``jump``,
    ``drift_implicit_solve``, ``diffusion_matvec`` and ``jump_weighted_sum``
    is a float, or an array of shape ``u.shape[:-1] + (1,)`` (``x`` for the
    implicit solve) that holds one time per row; each row's result must then
    equal its scalar-``t`` call bit for bit.  Elementwise use such as
    ``t * u`` broadcasts as it is; a matrix result reads ``t[..., None]``.
    The audit scans pass one time per sample row, the residual replay one
    per (step, path) row, and the stepping and the audit descent pass
    floats.  ``local_bound`` takes scalars only.

    The closed forms are solver fast paths only.  Audits always evaluate the
    full ``drift``, ``diffusion`` matrix and ``jump``, so a wrong closed form
    cannot hide a hypothesis violation.
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    jump: Callable[[float, np.ndarray, float], np.ndarray]
    mark_space: MarkSpace
    rho: Callable[[np.ndarray], np.ndarray] | None = None
    eta: Callable[[np.ndarray], np.ndarray] | None = None
    local_bound: Callable[[float, float], float] | None = None
    v_norm: Callable[[np.ndarray], np.ndarray] | None = None
    drift_jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    drift_implicit_solve: Callable[[float, np.ndarray, float], np.ndarray] | None = None
    diffusion_matvec: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    jump_weighted_sum: Callable[[float, np.ndarray], np.ndarray] | None = None

    def v_norm_of(self, triple: GelfandTriple, u: np.ndarray) -> np.ndarray:
        """‖u‖_V of each row of ``u`` (..., m), shape (...)."""
        if self.v_norm is not None:
            return np.asarray(self.v_norm(u), dtype=float)
        return np.sqrt(dot_rows(triple.v_weights[: u.shape[-1]] * u, u))

    def apply_diffusion(self, t: float, u: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """B(t, u) ΔW for each row of ``u`` and ``dw``, shape (..., m)."""
        if self.diffusion_matvec is not None:
            return np.asarray(self.diffusion_matvec(t, u, dw), dtype=float)
        return (np.asarray(self.diffusion(t, u), dtype=float) @ dw[..., None])[..., 0]

    def compensator_density(self, t: float, u: np.ndarray) -> np.ndarray:
        """Σ_i lam_i γ(t, u, z_i) for each row of ``u``; zero for the empty mark space."""
        if self.jump_weighted_sum is not None:
            return np.asarray(self.jump_weighted_sum(t, u), dtype=float)
        total = np.zeros(u.shape)
        for z, lam in zip(self.mark_space.marks, self.mark_space.weights):
            total += lam * np.asarray(self.jump(t, u, float(z)), dtype=float)
        return total


@dataclass
class HypothesisConstants:
    """Declared constants of the hypothesis system.

    ``f_integral``/``g_integral``/``h_p_integrals`` store the time integrals
    over [0, horizon]; f, g, h_p are taken constant in time (rate =
    integral / horizon).
    """

    beta: float
    f_integral: float = 0.0
    g_integral: float = 0.0
    h_p_integrals: dict = field(default_factory=dict)
    C_monotone: float = 0.0
    C_growth: float = 0.0
    zeta: float = 0.0
    alpha: float = 0.0
    lambda_exp: float = 0.0
    theta_exp: float = 0.0
    L_A: float = 0.0
    L_B: float = 0.0
    L_gamma: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.beta <= 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        bad = [v for v in (self.f_integral, self.g_integral, *self.h_p_integrals.values()) if v < 0]
        if bad:
            raise ValueError("integrated bounds must be nonnegative")

    def f_at(self, t: float) -> float:
        return self.f_integral / self.horizon

    def g_at(self, t: float) -> float:
        return self.g_integral / self.horizon

    def h_p_at(self, p: float, t: float) -> float:
        return self.h_p_integrals[p] / self.horizon


@dataclass
class HypothesisEntry:
    """One audited inequality: its worst margin and witness.

    ``evaluations`` counts the state rows the audit passed to the bundle's
    coefficients (drift, diffusion, jump per mark, rho, eta, v_norm), the
    descent's speculative trial rows included, and
    ``descent_gain`` is the refined margin minus the raw worst margin, or 0.
    """

    name: str
    worst_margin: float
    witness: dict
    samples_used: int
    tolerance: float
    evaluations: int = 0
    descent_gain: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.worst_margin >= -self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        """The entry as written to ``check_report.json``."""
        return {
            "hypothesis": self.name,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "witness_coeffs": self.witness,
            "samples": self.samples_used,
            "evaluations": self.evaluations,
            "descent_gain": self.descent_gain,
        }


@dataclass
class HypothesisReport:
    entries: list

    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> HypothesisEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def worst(self) -> HypothesisEntry:
        """The first entry with a NaN margin, else the first with the smallest margin."""
        return _first_worst(self.entries, lambda e: e.worst_margin)


# ---------------------------------------------------------------------------
# shared audit plumbing
# ---------------------------------------------------------------------------
#
# Every term function takes a time ``t``, a float or one time per row of
# shape (R, 1), and states ``u`` of shape (R, m), and returns one (LHS, RHS)
# value per row, so a scan evaluates its rows in one coefficient call per
# callable.  Row results keep the bits of a 1-D call:
# dot products go through ``dot_rows``, Hilbert-Schmidt sums through
# ``sum_squares`` and scalar powers through the C library's ``pow``.


def _finite_or_raise(value, name: str, t, u: np.ndarray) -> np.ndarray:
    """``value`` as a float array; a non-finite row raises with its own t and u."""
    arr = np.asarray(value, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = ~finite.reshape(u.shape[:-1] + (-1,)).all(axis=-1)
        # the first failing sample row, then its first failing stacked state (u before v)
        row = tuple(np.argwhere(bad.T)[0][::-1])
        t_row = t if np.ndim(t) == 0 else float(t[row][0])
        raise AuditFailure(f"{name} evaluated to a non-finite value",
                           witness={"coefficient": name, "t": t_row, "u": u[row].tolist()})
    return arr


def _stacked_time(t, u: np.ndarray):
    """``t`` for a stacked call on ``u`` (k, R, m): a float as it is, else (k, R, 1)."""
    return t if np.ndim(t) == 0 else np.broadcast_to(t, u.shape[:-1] + (1,))


def _v_norm(bundle, triple, t, u):
    return _finite_or_raise(bundle.v_norm_of(triple, u), "v_norm", t, u)


#: bundle callables the audits evaluate, with the position of ``u`` in their arguments
_STATE_CALLABLES = {"drift": 1, "diffusion": 1, "jump": 1, "rho": 0, "eta": 0, "v_norm": 0}


def _counting(bundle: CoefficientBundle):
    """A copy of ``bundle`` whose state callables add their row counts to ``rows[0]``."""
    rows = [0]

    def counted(fn, pos):
        def call(*args):
            rows[0] += math.prod(np.shape(args[pos])[:-1])
            return fn(*args)

        return call

    hooks = {
        name: counted(getattr(bundle, name), pos)
        for name, pos in _STATE_CALLABLES.items()
        if getattr(bundle, name) is not None
    }
    return replace(bundle, **hooks), rows


def _first_worst(items, margin):
    """The first item whose margin is NaN (``min`` alone passes over it), else the first smallest."""
    return min(items, key=lambda x: (not math.isnan(margin(x)), margin(x)))


def _rel_tol(scale: float) -> float:
    # relative floor absorbing quadrature noise in the margin evaluation
    return 1e-9 * (1.0 + scale)


def _audit_entry(name, bundle, samples, scan, tol_rule=_rel_tol) -> HypothesisEntry:
    """Run ``scan(bundle)`` -> (records, descent_gain) as the entry ``name``.

    records are (margin, scale, witness) tuples; the entry keeps the first
    NaN margin, else the first smallest.  The scan sees a copy of the bundle
    that counts the rows it evaluates.  A non-finite coefficient ends the
    scan in the failing entry: margin NaN, tolerance 0, the coefficient with
    its t and u as the witness.
    """
    counted, rows = _counting(bundle)
    try:
        records, gain = scan(counted)
    except AuditFailure as exc:
        return HypothesisEntry(name=name, worst_margin=math.nan, witness=exc.witness,
                               samples_used=samples, tolerance=0.0)
    worst = _first_worst(records, lambda r: r[0])
    return HypothesisEntry(
        name=name,
        worst_margin=float(worst[0]),
        witness=worst[2],
        samples_used=samples,
        tolerance=tol_rule(worst[1]),
        evaluations=rows[0],
        descent_gain=gain,
    )


def _time_grid(constants: HypothesisConstants | None) -> np.ndarray:
    horizon = constants.horizon if constants is not None else 1.0
    return np.linspace(0.0, horizon, AUDIT_TIME_POINTS)


def _batched(fn, *rows, stack: int = 1):
    """``fn(*chunk)`` -> per-row arrays on chunks of rows, joined per output.

    ``fn`` stacks ``stack`` states per row into each coefficient call, so a
    chunk holds AUDIT_BATCH_ROWS // stack rows and no call exceeds the cap.
    """
    n, size = len(rows[0]), AUDIT_BATCH_ROWS // stack
    parts = [fn(*(r[lo:lo + size] for r in rows)) for lo in range(0, n, size)]
    return [np.concatenate(values) for values in zip(*parts)]


def _audit_level(triple: GelfandTriple, level: int | None) -> int:
    """The Galerkin level an audit samples: ``level``, by default 8, or the
    triple's dimension_cap where that is smaller."""
    return level or min(triple.dimension_cap, 8)


def _row_times(constants: HypothesisConstants | None, n: int) -> np.ndarray:
    """The audit time of each of ``n`` sample rows, (n, 1): row i at ``times[i % times.size]``."""
    times = _time_grid(constants)
    return times[np.arange(n) % times.size][:, None]


def _sample_states(triple: GelfandTriple, level: int, seed: int, name: str, count: int) -> np.ndarray:
    """Gaussian coefficient vectors at staged amplitudes plus axis extremes, (n, level).

    Each random state draws from its own derived sub-stream, so sample i is
    the same vector regardless of batch size or worker layout; together with
    the order-independent min reduction this keeps audits deterministic for
    any distribution of the batch.
    """
    out = []
    for j in range(min(level, count)):
        for s in AUDIT_SCALES:
            e = np.zeros(level)
            e[j] = s
            out.append(e)
    for i, rng in enumerate(derive_rngs(seed, f"audit-{name}", "state", count=count)):
        s = AUDIT_SCALES[i % len(AUDIT_SCALES)]
        out.append(s * rng.standard_normal(level))
    return np.array(out)


def _trials(vecs: list, moves: list) -> list:
    """One trial row per move (operand k, coordinate j, step) from the point ``vecs``, per operand."""
    trials = [np.repeat(v[None], len(moves), axis=0) for v in vecs]
    for i, (k, j, step) in enumerate(moves):
        trials[k][i, j] += step
    return trials


def _descend(margin_fn, t: float, vecs: list, rounds: int = 4):
    """Deterministic coordinate perturbation descent from the worst witness.

    ``vecs`` holds the witness's operands, (u,) or (u, v), and
    ``margin_fn(t, *rows)`` gives one margin per trial row; returns the best
    margin and its operands.  In round r every coordinate of every operand
    moves by ±delta_r (1 + |x_j|), with x the round's starting point, from
    the last accepted point; a trial is accepted when its margin is below
    the best.  A window of the round's remaining trials, at most
    AUDIT_BATCH_ROWS // len(vecs) so no call exceeds the row cap, is
    evaluated in one call from the current point; the first trial below the
    best is accepted and the trials after it are evaluated again from
    there.  Rows keep the bits of their 1-D call, so this is the serial
    accept sequence.  A window that raises is replayed one trial at a time,
    so only a trial the serial descent evaluates can fail the entry.
    """
    best = float(margin_fn(t, *[v[None] for v in vecs])[0])
    steps = (0.3, 0.1, 0.03, 0.01)
    cap = AUDIT_BATCH_ROWS // len(vecs)
    for r in range(rounds):
        delta = steps[min(r, len(steps) - 1)]
        moves = [
            (k, j, sign * delta * (1.0 + abs(vec[j])))
            for k, vec in enumerate(vecs)
            for j in range(vec.shape[0])
            for sign in (1.0, -1.0)
        ]
        lo = 0
        while lo < len(moves):
            window = moves[lo:lo + cap]
            trials = _trials(vecs, window)
            try:
                margins = margin_fn(t, *trials)
            except AuditFailure:
                for move in window:
                    trial = _trials(vecs, [move])
                    m = float(margin_fn(t, *trial)[0])
                    if m < best:
                        best, vecs = m, [x[0] for x in trial]
                lo += len(window)
                continue
            below = np.flatnonzero(margins < best)
            if below.size == 0:
                lo += len(window)
                continue
            i = int(below[0])
            best, vecs = float(margins[i]), [x[i] for x in trials]
            lo += i + 1
    return best, vecs


def _inequality_scan(terms, constants, operands, kind=None):
    """The scan of ``terms(b, t, *rows)`` -> (LHS, RHS) over sampled ``operands``.

    ``operands`` is ``(u,)`` or ``(u, v)``, arrays of sample rows, each row
    at its own audit time (``_row_times``).  The descent refines the first
    smallest margin at its row's time as a float, and the refined record
    joins the sampled ones when it is smaller.  Witnesses hold t, u, v and
    ``kind`` (when given), in that order.  Returns ``scan(b)`` -> (records,
    descent_gain).
    """
    row_times = _row_times(constants, len(operands[0]))
    ts = row_times[:, 0].tolist()

    def witness(t, rows):
        w = dict(zip(("t", "u", "v"), (t, *rows)))
        return w if kind is None else {**w, "kind": kind}

    def scan(b):
        def margin_fn(t, *rows):
            lhs, rhs = terms(b, t, *rows)
            return rhs - lhs

        lhs, rhs = _batched(lambda t, *rows: terms(b, t, *rows), row_times, *operands, stack=len(operands))
        columns = [x.tolist() for x in operands]
        records = [
            (r - l, abs(l) + abs(r), witness(t, rows))
            for t, l, r, *rows in zip(ts, lhs.tolist(), rhs.tolist(), *columns)
        ]
        i = min(range(len(records)), key=lambda k: records[k][0])
        t = ts[i]
        refined, rows = _descend(margin_fn, t, [x[i] for x in operands])
        gain = 0.0
        if refined < records[i][0]:
            gain = refined - records[i][0]
            lhs1, rhs1 = terms(b, t, *[r[None] for r in rows])
            scale = abs(float(lhs1[0])) + abs(float(rhs1[0]))
            records.append((refined, scale, witness(t, [r.tolist() for r in rows])))
        return records, gain

    return scan


# ---------------------------------------------------------------------------
# H1: hemicontinuity
# ---------------------------------------------------------------------------


def hemicontinuity_jump_estimate(bundle, triple, t, u, v, w):
    """Estimate the largest jump of s -> <A(t, u + s v), w> on [-1, 1.5].

    Scans three nested grids (1025/257/65 points) and removes the smooth
    O(h) and O(h^2) parts of the max adjacent difference by two rounds of
    Richardson extrapolation; what survives is the jump size.  The fine grid
    is evaluated in batched drift calls; its spacing 5/2048 is a binary
    fraction, so the coarser grids are exactly its every 4th and 16th point.
    Returns (jump_estimate, s_witness, value_range).
    """

    def segment(points):
        a = _finite_or_raise(bundle.drift(t, points), "drift", t, points)
        return (dot_rows(a, w),)

    grid = np.linspace(-1.0, 1.5, 1025)
    (vals_fine,) = _batched(segment, u + grid[:, None] * v)
    diffs = [np.abs(np.diff(vals_fine[::stride])) for stride in (1, 4, 16)]
    d_fine, d_mid, d_coarse = (float(d.max()) for d in diffs)
    s_fine = float(grid[int(np.argmax(diffs[0]))])
    a1 = (4.0 * d_fine - d_mid) / 3.0
    a2 = (4.0 * d_mid - d_coarse) / 3.0
    jump = max(0.0, (16.0 * a1 - a2) / 15.0)
    value_range = float(vals_fine.max() - vals_fine.min())
    return jump, s_fine, value_range


def audit_hemicontinuity(bundle, triple, samples: int, seed: int, level: int | None = None,
                         constants: HypothesisConstants | None = None) -> HypothesisEntry:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level = _audit_level(triple, level)
    times = _time_grid(constants)
    n_scans = max(1, samples // 64)  # each scan evaluates the drift at ~1300 points

    def scan(b):
        records = []
        for i, rng in enumerate(derive_rngs(seed, "audit-H1", count=n_scans)):
            t = float(times[i % times.size])
            scale = AUDIT_SCALES[i % len(AUDIT_SCALES)]
            u = scale * rng.standard_normal(level)
            v = scale * rng.standard_normal(level)
            w = rng.standard_normal(level)
            w /= max(np.linalg.norm(w), 1e-12)
            jump, s_loc, value_range = hemicontinuity_jump_estimate(b, triple, t, u, v, w)
            records.append(
                (-jump, value_range, {"t": t, "s": s_loc, "u": u.tolist(), "v": v.tolist()})
            )
        return records, 0.0

    return _audit_entry("H1", bundle, samples, scan, lambda s: 1e-5 * (1.0 + s))


# ---------------------------------------------------------------------------
# H2 / H2' / H2*: local monotonicity
# ---------------------------------------------------------------------------


def _noise_difference_terms(bundle, t, uv):
    """‖B(t,u)−B(t,v)‖_{L2}² + Σ lam_i ‖γ(t,u,z_i)−γ(t,v,z_i)‖² per row; ``uv`` is (2, ..., m)."""
    b = _finite_or_raise(bundle.diffusion(t, uv), "diffusion", t, uv)
    total = sum_squares(b[0] - b[1])
    ms = bundle.mark_space
    if not ms.is_zero:
        for z, lam in zip(ms.marks, ms.weights):
            g = _finite_or_raise(bundle.jump(t, uv, float(z)), "jump", t, uv)
            dg = g[0] - g[1]
            total = total + lam * dot_rows(dg, dg)
    return total


def local_monotonicity_terms(bundle, constants, triple, mode, t, u, v):
    """(LHS, RHS) of the selected local-monotonicity inequality at (t, u, v), per row."""
    if mode == "H2prime":
        if bundle.local_bound is None:
            raise ValueError("mode H2prime requires the bundle to declare local_bound")
    elif bundle.rho is None or bundle.eta is None:
        raise ValueError(f"mode {mode} requires the bundle to declare rho and eta")
    uv = np.stack([u, v])
    t_uv = _stacked_time(t, uv)
    a = _finite_or_raise(bundle.drift(t_uv, uv), "drift", t_uv, uv)
    diff = u - v
    pair = dot_rows(a[0] - a[1], diff)
    h2 = dot_rows(diff, diff)

    if mode == "H2prime":
        vn = _v_norm(bundle, triple, t_uv, uv)
        r = np.where(vn[1] > vn[0], vn[1], vn[0])
        ts = np.broadcast_to(t, r.shape + (1,)).reshape(-1).tolist()
        bound = [float(bundle.local_bound(s, x)) for s, x in zip(ts, r.reshape(-1).tolist())]
        return pair, np.reshape(bound, r.shape) * h2

    lhs = 2.0 * pair + _noise_difference_terms(bundle, t_uv, uv)
    rho = _finite_or_raise(bundle.rho(u), "rho", t, u)
    eta = _finite_or_raise(bundle.eta(v), "eta", t, v)
    rhs = (constants.f_at(t) + rho + eta) * h2
    return lhs, rhs


def envelope_terms(bundle, constants, triple, mode, u):
    """(LHS, RHS) of the rho/eta envelope bound at each state row of u."""
    if mode not in ("H2", "H2star"):
        raise ValueError(f"no envelope in mode {mode}")
    h = np.sqrt(dot_rows(u, u))
    vn = _v_norm(bundle, triple, None, u)
    rho = np.abs(_finite_or_raise(bundle.rho(u), "rho", None, u))
    eta = np.abs(_finite_or_raise(bundle.eta(u), "eta", None, u))
    c = constants.C_monotone
    if mode == "H2":
        rhs = c * (1.0 + libm_pow(vn, constants.beta)) * (1.0 + libm_pow(h, constants.zeta))
        return rho + eta, rhs
    rhs_rho = c * (1.0 + libm_pow(h, constants.lambda_exp)) + c * libm_pow(vn, constants.theta_exp) * (
        1.0 + libm_pow(h, constants.zeta)
    )
    rhs_eta = c * (1.0 + libm_pow(h, 2.0 + constants.alpha)) + c * libm_pow(vn, constants.beta) * (
        1.0 + libm_pow(h, constants.alpha)
    )
    # report the tighter of the two residuals as one envelope check
    tighter = rhs_rho - rho <= rhs_eta - eta
    return np.where(tighter, rho, eta), np.where(tighter, rhs_rho, rhs_eta)


def audit_local_monotonicity(bundle, constants, triple, mode, samples, seed,
                             level: int | None = None) -> HypothesisEntry:
    """Audit (H.2), (H.2)' or (H.2)*; ``mode`` in {"H2", "H2prime", "H2star"}."""
    if mode not in ("H2", "H2prime", "H2star"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "H2star" and constants.theta_exp >= constants.beta:
        raise ValueError("H2star requires theta_exp < beta")
    level = _audit_level(triple, level)
    states = _sample_states(triple, level, seed, mode, samples)
    us, vs = states[:-1:2], states[1::2]

    inequality = _inequality_scan(
        lambda b, t, u, v: local_monotonicity_terms(b, constants, triple, mode, t, u, v),
        constants, (us, vs), "inequality",
    )

    def scan(b):
        records, gain = inequality(b)
        if mode in ("H2", "H2star"):
            lhs, rhs = _batched(lambda u: envelope_terms(b, constants, triple, mode, u), states)
            records.extend(
                (r - l, abs(l) + abs(r), {"t": None, "u": u.tolist(), "v": None, "kind": "envelope"})
                for u, l, r in zip(states, lhs.tolist(), rhs.tolist())
            )
        return records, gain

    return _audit_entry(mode, bundle, samples, scan)


# ---------------------------------------------------------------------------
# H3-H6 coercivity and growth
# ---------------------------------------------------------------------------


def coercivity_terms(bundle, constants, triple, t, u):
    """(LHS, RHS) of ⟨A(t,u),u⟩ ≤ f(t)(1+‖u‖_H²) − L_A ‖u‖_V^β, per row.

    Part I declares coercivity with a factor 2 on the pairing; dividing by 2
    gives exactly this form with L_A = C/2 and f/2, so one margin serves
    both hypothesis sets.
    """
    a = _finite_or_raise(bundle.drift(t, u), "drift", t, u)
    lhs = dot_rows(a, u)
    h2 = dot_rows(u, u)
    vn = _v_norm(bundle, triple, t, u)
    rhs = constants.f_at(t) * (1.0 + h2) - constants.L_A * libm_pow(vn, constants.beta)
    return lhs, rhs


def drift_growth_terms(bundle, constants, triple, part, t, u):
    """(LHS, RHS) of the dual-norm drift growth bound (part "I" or "II"), per row."""
    a = _finite_or_raise(bundle.drift(t, u), "drift", t, u)
    beta = constants.beta
    norm_vstar = np.sqrt(dot_rows(a / triple.v_weights[: a.shape[-1]], a))
    lhs = libm_pow(norm_vstar, beta / (beta - 1.0))
    h = np.sqrt(dot_rows(u, u))
    vn_beta = libm_pow(_v_norm(bundle, triple, t, u), beta)
    if part == "I":
        rhs = (constants.f_at(t) + constants.C_growth * vn_beta) * (1.0 + libm_pow(h, constants.alpha))
    else:
        rhs = constants.f_at(t) * (1.0 + libm_pow(h, 2.0 + constants.alpha)) + constants.C_growth * vn_beta * (
            1.0 + libm_pow(h, constants.alpha)
        )
    return lhs, rhs


def diffusion_growth_terms(bundle, constants, triple, part, t, u):
    """(LHS, RHS) of ‖B(t,u)‖_{L2}² ≤ g(t)(1+‖u‖_H²) [+ L_B ‖u‖_V^β], per row."""
    b = _finite_or_raise(bundle.diffusion(t, u), "diffusion", t, u)
    lhs = sum_squares(b)
    h2 = dot_rows(u, u)
    rhs = constants.g_at(t) * (1.0 + h2)
    if part == "II":
        rhs = rhs + constants.L_B * libm_pow(_v_norm(bundle, triple, t, u), constants.beta)
    return lhs, rhs


def jump_growth_terms(bundle, constants, triple, part, p, t, u):
    """(LHS, RHS) of ∫‖γ‖^p dλ ≤ h_p(t)(1+‖u‖_H^p) [+ L_γ ‖u‖_H^{p−2}‖u‖_V^β], per row."""
    ms = bundle.mark_space
    lhs = np.zeros(u.shape[:-1])
    for z, lam in zip(ms.marks, ms.weights):
        g = _finite_or_raise(bundle.jump(t, u, float(z)), "jump", t, u)
        lhs = lhs + lam * libm_pow(dot_rows(g, g), p / 2.0)
    h = np.sqrt(dot_rows(u, u))
    rhs = constants.h_p_at(p, t) * (1.0 + libm_pow(h, p))
    if part == "II":
        vn_beta = libm_pow(_v_norm(bundle, triple, t, u), constants.beta)
        rhs = rhs + constants.L_gamma * libm_pow(h, p - 2.0) * vn_beta
    return lhs, rhs


def audit_coercivity_growth(bundle, constants, triple, part, samples, seed,
                            level: int | None = None) -> list:
    """Audit coercivity and the three growth bounds; ``part`` in {"I", "II"}."""
    if part not in ("I", "II"):
        raise ValueError(f"part must be 'I' or 'II', got {part!r}")
    level = _audit_level(triple, level)
    star = "" if part == "I" else "star"
    scans = [
        (f"H3{star}", lambda b, t, u: coercivity_terms(b, constants, triple, t, u)),
        (f"H4{star}", lambda b, t, u: drift_growth_terms(b, constants, triple, part, t, u)),
        (f"H5{star}", lambda b, t, u: diffusion_growth_terms(b, constants, triple, part, t, u)),
    ]
    scans += [
        (f"H6{star}-p{p:g}", lambda b, t, u, p=p: jump_growth_terms(b, constants, triple, part, p, t, u))
        for p in sorted(constants.h_p_integrals)
    ]
    entries = []
    for name, terms in scans:
        states = _sample_states(triple, level, seed, name, samples)
        entries.append(_audit_entry(name, bundle, samples, _inequality_scan(terms, constants, (states,))))
    return entries


# ---------------------------------------------------------------------------
# H5(1)/H6(2): sequential continuity along constructed sequences
# ---------------------------------------------------------------------------


def audit_sequential_continuity(bundle, constants, triple, samples, seed,
                                level: int | None = None, depth: int = 10) -> list:
    """Check B and the jump integrand along u_k = u + 2^{-k} d, d random.

    Genuine sequential continuity over all H-convergent sequences is not
    numerically decidable; this audits the constructed test sequences only
    and passes when the distance at depth k has collapsed relative to k=0.
    """
    level = _audit_level(triple, level)
    n_seq = max(1, samples // 16)
    us, ds = [], []
    for i, rng in enumerate(derive_rngs(seed, "audit-seqcont", count=n_seq)):
        us.append(AUDIT_SCALES[i % len(AUDIT_SCALES)] * rng.standard_normal(level))
        ds.append(rng.standard_normal(level))
    us, ds = np.array(us), np.array(ds)
    row_times = _row_times(constants, n_seq)

    def sequence(t, u, d):
        # the limit u, then the sequence at k = 0 and k = depth, (3, ..., m), with their times
        seq = np.stack([u] + [u + 2.0**-k * d for k in (0, depth)])
        return _stacked_time(t, seq), seq

    def b_dists(b, t, u, d):
        t, seq = sequence(t, u, d)
        bs = _finite_or_raise(b.diffusion(t, seq), "diffusion", t, seq)
        return np.sqrt(sum_squares(bs[1:] - bs[0]))

    def g_dists(b, t, u, d):
        t, seq = sequence(t, u, d)
        total = np.zeros(seq.shape[:-1])[1:]
        for z, lam in zip(b.mark_space.marks, b.mark_space.weights):
            g = _finite_or_raise(b.jump(t, seq, float(z)), "jump", t, seq)
            dg = g[1:] - g[0]
            total = total + lam * dot_rows(dg, dg)
        return np.sqrt(total)

    def continuity_scan(dists):
        def scan(b):
            # each row's call stacks its sequence's three states
            d0, dk = _batched(lambda t, u, d: dists(b, t, u, d), row_times, us, ds, stack=3)
            records = [
                (1e-2 * (1.0 + a) - c, a, {"t": t, "u": u, "d0": a, "dk": c})
                for t, u, a, c in zip(row_times[:, 0].tolist(), us.tolist(), d0.tolist(), dk.tolist())
            ]
            return records, 0.0

        return scan

    scans = [("H5-continuity", b_dists)]
    if not bundle.mark_space.is_zero:
        scans.append(("H6-continuity", g_dists))
    return [_audit_entry(name, bundle, samples, continuity_scan(dists)) for name, dists in scans]


# ---------------------------------------------------------------------------
# Part-II admissibility arithmetic
# ---------------------------------------------------------------------------


def chi_exponent(constants: HypothesisConstants) -> float:
    """The moment-coupling exponent: max over the three growth routes.

    The two branches coincide at beta = 2, where 1 + lambda = 3 + lambda - beta.
    """
    a = 1.0 + constants.alpha
    c = 1.0 + constants.zeta + 2.0 * constants.theta_exp / constants.beta
    if constants.beta <= 2.0:
        b = 1.0 + constants.lambda_exp
    else:
        b = 3.0 + constants.lambda_exp - constants.beta
    return max(a, b, c)


def c1_of(p: float) -> float:
    """Moment-splitting constant: 1 on 2 <= p <= 3, then 2^{p-3}."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    return 1.0 if p <= 3.0 else 2.0 ** (p - 3.0)


def c2_of(p: float) -> float:
    """Second moment-splitting constant: 1 on 2 <= p <= 4, then 2."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    return 1.0 if p <= 4.0 else 2.0


def default_c_tilde(p: float) -> float:
    # imported-constant placeholder: the cited bound does not pin a value,
    # so the moment side condition is evaluated against a configurable guess
    return 4.0**p


@dataclass
class PRangeResult:
    chi: float
    p_min: float
    p_max: float  # inf when the growth denominator vanishes
    unbounded: bool
    empty: bool
    rows: list

    def row_at(self, p: float) -> dict:
        return min(self.rows, key=lambda r: abs(r["p"] - p))


def admissible_p_range(
    constants: HypothesisConstants,
    c_tilde: Callable[[float], float] | None = None,
    p_cap: float = 64.0,
    p_step: float = 1.0 / 64.0,
) -> PRangeResult:
    """Scan the admissible moment orders p of the part-II regime.

    For each candidate p the scan records the growth bound
    ``p < 1 + (2 L_A + L_B) / (L_B + 2 C1(p) L_gamma)``, the strict
    admissibility inequality ``L_B + 2 C1(p) L_gamma < (2 L_A + L_B)/chi``,
    and the moment side condition
    ``L_gamma^{p/2} < L_A^{p/2} / ((1 + sqrt(3) C2) C2^2 C~_p)``.
    L_B = L_gamma = 0 degenerates the growth denominator; the interval is
    then unbounded above and flagged, not an error.
    """
    c_tilde = c_tilde or default_c_tilde
    chi = chi_exponent(constants)
    la, lb, lg = constants.L_A, constants.L_B, constants.L_gamma
    unbounded = lb == 0.0 and lg == 0.0

    def log_or_neg_inf(x: float) -> float:
        return math.log(x) if x > 0.0 else -math.inf

    rows = []
    p_max = -np.inf
    grid = np.arange(2.0, p_cap + 1e-12, p_step)
    for p in grid:
        p = float(p)
        c1 = c1_of(p)
        c2 = c2_of(p)
        denom = lb + 2.0 * c1 * lg
        growth_ok = True if denom == 0.0 else p < 1.0 + (2.0 * la + lb) / denom
        admissible_ok = denom < (2.0 * la + lb) / chi if chi > 0 else False
        # moment side condition compared in log space: the configured
        # constant guess can be astronomically large without overflowing
        try:
            ct_log = log_or_neg_inf(float(c_tilde(p)))
        except OverflowError:
            ct_log = math.inf
        side_log = math.log((1.0 + math.sqrt(3.0) * c2) * c2**2) + ct_log
        moment_ok = (p / 2.0) * log_or_neg_inf(lg) < (p / 2.0) * log_or_neg_inf(la) - side_log
        rows.append(
            {
                "p": p,
                "c1": c1,
                "c2": c2,
                "growth_ok": growth_ok,
                "admissible_ok": admissible_ok,
                "moment_ok": moment_ok,
            }
        )
        if growth_ok and admissible_ok:
            p_max = max(p_max, p)

    empty = p_max == -np.inf
    if unbounded and not empty:
        p_max = np.inf
    return PRangeResult(
        chi=chi,
        p_min=2.0,
        p_max=float(p_max) if not empty else float("nan"),
        unbounded=unbounded,
        empty=empty,
        rows=rows,
    )
