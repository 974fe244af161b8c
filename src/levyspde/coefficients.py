"""Coefficient bundles, hypothesis constants, and numerical auditors.

The auditors are sampled falsification checks, not proofs: each one draws
random states, evaluates both sides of the target inequality, and reports
the worst margin (RHS − LHS, so nonnegative means the inequality held) plus
the witness that attained it.  A short deterministic perturbation descent
refines the worst witness, since thin violation regions are easy to miss
with raw sampling.

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

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .noise import MarkSpace
from .rng import derive_rng
from .spaces import GelfandTriple

__all__ = [
    "CoefficientBundle",
    "HypothesisConstants",
    "HypothesisEntry",
    "HypothesisReport",
    "AuditFailure",
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


class AuditFailure(RuntimeError):
    """A coefficient evaluation returned a non-finite value during an audit."""

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

    def v_norm_of(self, triple: GelfandTriple, u: np.ndarray) -> float:
        """‖u‖_V of one state u (m,)."""
        if self.v_norm is not None:
            return float(self.v_norm(u))
        return triple.norm_v(u)

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
    integral / horizon) unless a profile callable is declared.
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
    f_profile: Callable[[float], float] | None = None
    g_profile: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.beta <= 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        bad = [v for v in (self.f_integral, self.g_integral, *self.h_p_integrals.values()) if v < 0]
        if bad:
            raise ValueError("integrated bounds must be nonnegative")

    def f_at(self, t: float) -> float:
        if self.f_profile is not None:
            return float(self.f_profile(t))
        return self.f_integral / self.horizon

    def g_at(self, t: float) -> float:
        if self.g_profile is not None:
            return float(self.g_profile(t))
        return self.g_integral / self.horizon

    def h_p_at(self, p: float, t: float) -> float:
        return self.h_p_integrals[p] / self.horizon


@dataclass
class HypothesisEntry:
    name: str
    worst_margin: float
    witness: dict
    samples_used: int
    tolerance: float

    @property
    def verdict(self) -> str:
        return "pass" if self.worst_margin >= -self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "hypothesis": self.name,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "witness_coeffs": self.witness,
            "samples": self.samples_used,
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

    def to_json(self) -> str:
        return json.dumps([e.to_json_dict() for e in self.entries], indent=2)


# ---------------------------------------------------------------------------
# shared audit plumbing
# ---------------------------------------------------------------------------


def _finite_or_raise(value, name, witness):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise AuditFailure(f"{name} evaluated to a non-finite value", witness=witness)
    return arr


def _time_grid(constants: HypothesisConstants | None) -> np.ndarray:
    horizon = constants.horizon if constants is not None else 1.0
    return np.linspace(0.0, horizon, AUDIT_TIME_POINTS)


def _sample_states(triple: GelfandTriple, level: int, seed: int, name: str, count: int):
    """Gaussian coefficient vectors at staged amplitudes plus axis extremes.

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
    for i in range(count):
        rng = derive_rng(seed, f"audit-{name}", "state", i)
        s = AUDIT_SCALES[i % len(AUDIT_SCALES)]
        out.append(s * rng.standard_normal(level))
    return out


def _descend(margin_fn, t: float, u: np.ndarray, v: np.ndarray | None, rounds: int = 4):
    """Deterministic coordinate perturbation descent from the worst witness."""
    best = margin_fn(t, u, v)
    steps = (0.3, 0.1, 0.03, 0.01)
    vecs = [u] if v is None else [u, v]
    for r in range(rounds):
        delta = steps[min(r, len(steps) - 1)]
        for vec_idx, vec in enumerate(vecs):
            for j in range(vec.shape[0]):
                for sign in (1.0, -1.0):
                    trial = [w.copy() for w in vecs]
                    trial[vec_idx][j] += sign * delta * (1.0 + abs(vec[j]))
                    m = margin_fn(t, trial[0], trial[1] if v is not None else None)
                    if m < best:
                        best = m
                        vecs = trial
    return best, vecs[0], (vecs[1] if v is not None else None)


def _entry_from_scan(name, records, tol_rule, samples):
    """records: list of (margin, scale, witness) tuples -> worst entry."""
    worst = min(records, key=lambda r: r[0])
    tol = tol_rule(worst[1])
    return HypothesisEntry(
        name=name,
        worst_margin=float(worst[0]),
        witness=worst[2],
        samples_used=samples,
        tolerance=tol,
    )


def _rel_tol(scale: float) -> float:
    # relative floor absorbing quadrature noise in the margin evaluation
    return 1e-9 * (1.0 + scale)


# ---------------------------------------------------------------------------
# H1: hemicontinuity
# ---------------------------------------------------------------------------


def hemicontinuity_jump_estimate(bundle, triple, t, u, v, w, s_lo=-1.0, s_hi=1.5):
    """Estimate the largest jump of s -> <A(t, u + s v), w> on [s_lo, s_hi].

    Scans three nested grids (1025/257/65 points) and removes the smooth
    O(h) and O(h^2) parts of the max adjacent difference by two rounds of
    Richardson extrapolation; what survives is the jump size.
    Returns (jump_estimate, s_witness, value_range).
    """
    def f(s):
        a = _finite_or_raise(bundle.drift(t, u + s * v), "drift", {"t": t, "s": s})
        return float(np.dot(a, w))

    values = {}

    def scan(n):
        grid = np.linspace(s_lo, s_hi, n)
        vals = np.array([values.setdefault(round(s, 14), f(s)) for s in grid])
        diffs = np.abs(np.diff(vals))
        k = int(np.argmax(diffs))
        return float(diffs[k]), float(grid[k]), vals

    d_fine, s_fine, vals_fine = scan(1025)
    d_mid, _, _ = scan(257)
    d_coarse, _, _ = scan(65)
    a1 = (4.0 * d_fine - d_mid) / 3.0
    a2 = (4.0 * d_mid - d_coarse) / 3.0
    jump = max(0.0, (16.0 * a1 - a2) / 15.0)
    value_range = float(vals_fine.max() - vals_fine.min())
    return jump, s_fine, value_range


def audit_hemicontinuity(bundle, triple, samples: int, seed: int, level: int | None = None,
                         constants: HypothesisConstants | None = None) -> HypothesisEntry:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level = level or min(triple.dimension_cap, 8)
    times = _time_grid(constants)
    records = []
    n_scans = max(1, samples // 64)  # each scan evaluates the drift ~1300 times
    for i in range(n_scans):
        rng = derive_rng(seed, "audit-H1", i)
        t = float(times[i % times.size])
        scale = AUDIT_SCALES[i % len(AUDIT_SCALES)]
        u = scale * rng.standard_normal(level)
        v = scale * rng.standard_normal(level)
        w = rng.standard_normal(level)
        w /= max(np.linalg.norm(w), 1e-12)
        jump, s_loc, value_range = hemicontinuity_jump_estimate(bundle, triple, t, u, v, w)
        margin = -jump
        tol_scale = value_range
        records.append(
            (margin, tol_scale, {"t": t, "s": s_loc, "u": u.tolist(), "v": v.tolist()})
        )
    return _entry_from_scan("H1", records, lambda s: 1e-5 * (1.0 + s), samples)


# ---------------------------------------------------------------------------
# H2 / H2' / H2*: local monotonicity
# ---------------------------------------------------------------------------


def _noise_difference_terms(bundle, t, u, v):
    """‖B(t,u)−B(t,v)‖_{L2}² + Σ lam_i ‖γ(t,u,z_i)−γ(t,v,z_i)‖²."""
    db = _finite_or_raise(bundle.diffusion(t, u), "diffusion", {"t": t}) - np.asarray(
        bundle.diffusion(t, v), dtype=float
    )
    total = float(np.sum(db * db))
    ms = bundle.mark_space
    if not ms.is_zero:
        for z, lam in zip(ms.marks, ms.weights):
            dg = _finite_or_raise(bundle.jump(t, u, float(z)), "jump", {"t": t}) - np.asarray(
                bundle.jump(t, v, float(z)), dtype=float
            )
            total += lam * float(np.dot(dg, dg))
    return total


def local_monotonicity_terms(bundle, constants, triple, mode, t, u, v):
    """(LHS, RHS) of the selected local-monotonicity inequality at (t, u, v)."""
    au = _finite_or_raise(bundle.drift(t, u), "drift", {"t": t, "u": u.tolist()})
    av = _finite_or_raise(bundle.drift(t, v), "drift", {"t": t, "v": v.tolist()})
    diff = u - v
    pair = float(np.dot(au - av, diff))
    h2 = float(np.dot(diff, diff))

    if mode == "H2prime":
        if bundle.local_bound is None:
            raise ValueError("mode H2prime requires the bundle to declare local_bound")
        r = max(bundle.v_norm_of(triple, u), bundle.v_norm_of(triple, v))
        return pair, float(bundle.local_bound(t, r)) * h2

    if bundle.rho is None or bundle.eta is None:
        raise ValueError(f"mode {mode} requires the bundle to declare rho and eta")
    lhs = 2.0 * pair + _noise_difference_terms(bundle, t, u, v)
    rhs = (constants.f_at(t) + float(bundle.rho(u)) + float(bundle.eta(v))) * h2
    return lhs, rhs


def envelope_terms(bundle, constants, triple, mode, u):
    """(LHS, RHS) of the rho/eta envelope bound at state u."""
    h = triple.norm_h(u)
    vn = bundle.v_norm_of(triple, u)
    c = constants.C_monotone
    if mode == "H2":
        lhs = abs(float(bundle.rho(u))) + abs(float(bundle.eta(u)))
        rhs = c * (1.0 + vn**constants.beta) * (1.0 + h**constants.zeta)
        return lhs, rhs
    if mode == "H2star":
        lhs_rho = abs(float(bundle.rho(u)))
        rhs_rho = c * (1.0 + h**constants.lambda_exp) + c * vn**constants.theta_exp * (
            1.0 + h**constants.zeta
        )
        lhs_eta = abs(float(bundle.eta(u)))
        rhs_eta = c * (1.0 + h ** (2.0 + constants.alpha)) + c * vn**constants.beta * (
            1.0 + h**constants.alpha
        )
        # report the tighter of the two residuals as one envelope check
        if rhs_rho - lhs_rho <= rhs_eta - lhs_eta:
            return lhs_rho, rhs_rho
        return lhs_eta, rhs_eta
    raise ValueError(f"no envelope in mode {mode}")


def audit_local_monotonicity(bundle, constants, triple, mode, samples, seed,
                             level: int | None = None) -> HypothesisEntry:
    """Audit (H.2), (H.2)' or (H.2)*; ``mode`` in {"H2", "H2prime", "H2star"}."""
    if mode not in ("H2", "H2prime", "H2star"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "H2star" and constants.theta_exp >= constants.beta:
        raise ValueError("H2star requires theta_exp < beta")
    level = level or min(triple.dimension_cap, 8)
    times = _time_grid(constants)
    records = []

    def margin_fn(t, u, v):
        lhs, rhs = local_monotonicity_terms(bundle, constants, triple, mode, t, u, v)
        return rhs - lhs

    states = _sample_states(triple, level, seed, mode, samples)
    for i in range(0, len(states) - 1, 2):
        t = float(times[(i // 2) % times.size])
        u, v = states[i], states[i + 1]
        lhs, rhs = local_monotonicity_terms(bundle, constants, triple, mode, t, u, v)
        records.append(
            (rhs - lhs, abs(lhs) + abs(rhs),
             {"t": t, "u": u.tolist(), "v": v.tolist(), "kind": "inequality"})
        )

    worst = min(records, key=lambda r: r[0])
    wt, wu, wv = worst[2]["t"], np.array(worst[2]["u"]), np.array(worst[2]["v"])
    refined, ru, rv = _descend(margin_fn, wt, wu, wv)
    if refined < worst[0]:
        lhs, rhs = local_monotonicity_terms(bundle, constants, triple, mode, wt, ru, rv)
        records.append(
            (refined, abs(lhs) + abs(rhs),
             {"t": wt, "u": ru.tolist(), "v": rv.tolist(), "kind": "inequality"})
        )

    if mode in ("H2", "H2star"):
        for u in states:
            lhs, rhs = envelope_terms(bundle, constants, triple, mode, u)
            records.append(
                (rhs - lhs, abs(lhs) + abs(rhs),
                 {"t": None, "u": u.tolist(), "v": None, "kind": "envelope"})
            )

    return _entry_from_scan(mode, records, _rel_tol, samples)


# ---------------------------------------------------------------------------
# H3-H6 coercivity and growth
# ---------------------------------------------------------------------------


def coercivity_terms(bundle, constants, triple, t, u):
    """(LHS, RHS) of ⟨A(t,u),u⟩ ≤ f(t)(1+‖u‖_H²) − L_A ‖u‖_V^β.

    Part I declares coercivity with a factor 2 on the pairing; dividing by 2
    gives exactly this form with L_A = C/2 and f/2, so one margin serves
    both hypothesis sets.
    """
    a = _finite_or_raise(bundle.drift(t, u), "drift", {"t": t, "u": u.tolist()})
    lhs = float(np.dot(a, u))
    h2 = float(np.dot(u, u))
    vn = bundle.v_norm_of(triple, u)
    rhs = constants.f_at(t) * (1.0 + h2) - constants.L_A * vn**constants.beta
    return lhs, rhs


def drift_growth_terms(bundle, constants, triple, part, t, u):
    """(LHS, RHS) of the dual-norm drift growth bound (part "I" or "II")."""
    a = _finite_or_raise(bundle.drift(t, u), "drift", {"t": t, "u": u.tolist()})
    beta = constants.beta
    lhs = triple.norm_vstar(a) ** (beta / (beta - 1.0))
    h = triple.norm_h(u)
    vn = bundle.v_norm_of(triple, u)
    if part == "I":
        rhs = (constants.f_at(t) + constants.C_growth * vn**beta) * (1.0 + h**constants.alpha)
    else:
        rhs = constants.f_at(t) * (1.0 + h ** (2.0 + constants.alpha)) + constants.C_growth * vn**beta * (
            1.0 + h**constants.alpha
        )
    return lhs, rhs


def diffusion_growth_terms(bundle, constants, triple, part, t, u):
    """(LHS, RHS) of ‖B(t,u)‖_{L2}² ≤ g(t)(1+‖u‖_H²) [+ L_B ‖u‖_V^β]."""
    b = _finite_or_raise(bundle.diffusion(t, u), "diffusion", {"t": t, "u": u.tolist()})
    lhs = float(np.sum(b * b))
    h2 = float(np.dot(u, u))
    rhs = constants.g_at(t) * (1.0 + h2)
    if part == "II":
        vn = bundle.v_norm_of(triple, u)
        rhs += constants.L_B * vn**constants.beta
    return lhs, rhs


def jump_growth_terms(bundle, constants, triple, part, p, t, u):
    """(LHS, RHS) of ∫‖γ‖^p dλ ≤ h_p(t)(1+‖u‖_H^p) [+ L_γ ‖u‖_H^{p−2}‖u‖_V^β]."""
    ms = bundle.mark_space
    lhs = 0.0
    for z, lam in zip(ms.marks, ms.weights):
        g = _finite_or_raise(bundle.jump(t, u, float(z)), "jump", {"t": t, "u": u.tolist()})
        lhs += lam * float(np.dot(g, g)) ** (p / 2.0)
    h = triple.norm_h(u)
    rhs = constants.h_p_at(p, t) * (1.0 + h**p)
    if part == "II":
        vn = bundle.v_norm_of(triple, u)
        rhs += constants.L_gamma * h ** (p - 2.0) * vn**constants.beta
    return lhs, rhs


def _scan_inequality(name, term_fn, constants, triple, samples, seed, level, with_descent=True):
    times = _time_grid(constants)
    states = _sample_states(triple, level, seed, name, samples)
    records = []
    for i, u in enumerate(states):
        t = float(times[i % times.size])
        lhs, rhs = term_fn(t, u)
        records.append((rhs - lhs, abs(lhs) + abs(rhs), {"t": t, "u": u.tolist()}))
    if with_descent:
        worst = min(records, key=lambda r: r[0])
        wt, wu = worst[2]["t"], np.array(worst[2]["u"])

        def margin_fn(t, u, _v):
            lhs, rhs = term_fn(t, u)
            return rhs - lhs

        refined, ru, _ = _descend(margin_fn, wt, wu, None)
        if refined < worst[0]:
            lhs, rhs = term_fn(wt, ru)
            records.append((refined, abs(lhs) + abs(rhs), {"t": wt, "u": ru.tolist()}))
    return _entry_from_scan(name, records, _rel_tol, samples)


def audit_coercivity_growth(bundle, constants, triple, part, samples, seed,
                            level: int | None = None) -> list:
    """Audit coercivity and the three growth bounds; ``part`` in {"I", "II"}."""
    if part not in ("I", "II"):
        raise ValueError(f"part must be 'I' or 'II', got {part!r}")
    level = level or min(triple.dimension_cap, 8)
    star = "" if part == "I" else "star"
    entries = [
        _scan_inequality(
            f"H3{star}",
            lambda t, u: coercivity_terms(bundle, constants, triple, t, u),
            constants, triple, samples, seed, level,
        ),
        _scan_inequality(
            f"H4{star}",
            lambda t, u: drift_growth_terms(bundle, constants, triple, part, t, u),
            constants, triple, samples, seed, level,
        ),
        _scan_inequality(
            f"H5{star}",
            lambda t, u: diffusion_growth_terms(bundle, constants, triple, part, t, u),
            constants, triple, samples, seed, level,
        ),
    ]
    for p in sorted(constants.h_p_integrals):
        entries.append(
            _scan_inequality(
                f"H6{star}-p{p:g}",
                lambda t, u, p=p: jump_growth_terms(bundle, constants, triple, part, p, t, u),
                constants, triple, samples, seed, level,
            )
        )
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
    level = level or min(triple.dimension_cap, 8)
    times = _time_grid(constants)
    n_seq = max(1, samples // 16)
    rec_b, rec_g = [], []
    ms = bundle.mark_space
    for i in range(n_seq):
        rng = derive_rng(seed, "audit-seqcont", i)
        t = float(times[i % times.size])
        u = AUDIT_SCALES[i % len(AUDIT_SCALES)] * rng.standard_normal(level)
        d = rng.standard_normal(level)
        b_ref = np.asarray(bundle.diffusion(t, u), dtype=float)

        def b_dist(k):
            db = np.asarray(bundle.diffusion(t, u + 2.0**-k * d), dtype=float) - b_ref
            return float(np.sqrt(np.sum(db * db)))

        d0, dk = b_dist(0), b_dist(depth)
        rec_b.append((1e-2 * (1.0 + d0) - dk, d0, {"t": t, "u": u.tolist(), "d0": d0, "dk": dk}))

        if not ms.is_zero:
            def g_dist(k):
                uk = u + 2.0**-k * d
                total = 0.0
                for z, lam in zip(ms.marks, ms.weights):
                    dg = np.asarray(bundle.jump(t, uk, float(z)), dtype=float) - np.asarray(
                        bundle.jump(t, u, float(z)), dtype=float
                    )
                    total += lam * float(np.dot(dg, dg))
                return math.sqrt(total)

            g0, gk = g_dist(0), g_dist(depth)
            rec_g.append((1e-2 * (1.0 + g0) - gk, g0, {"t": t, "u": u.tolist(), "d0": g0, "dk": gk}))

    entries = [_entry_from_scan("H5-continuity", rec_b, _rel_tol, samples)]
    if rec_g:
        entries.append(_entry_from_scan("H6-continuity", rec_g, _rel_tol, samples))
    return entries


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
