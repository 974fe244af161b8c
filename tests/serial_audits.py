"""Serial reference copies of the hypothesis audits, one state per coefficient call.

These are the scans as they were before the audits evaluated whole sample
sets per time point.  ``test_coefficients`` runs them next to the batched
audits and requires the same margins, witnesses and tolerances, so a change
in the batching that moves one bit of a margin shows up there.  The sample
states come from one ``derive_rng`` call per sample and the descent is the
one-trial-at-a-time loop, so the batched stream derivation and the batched
descent are checked too.
"""

from __future__ import annotations

import math

import numpy as np

from levyspde.coefficients import (
    AUDIT_SCALES,
    AuditFailure,
    HypothesisEntry,
    HypothesisReport,
    _rel_tol,
    _time_grid,
)
from levyspde.models import _admissibility_entry
from levyspde.rng import derive_rng


def _norm_h(u):
    return float(np.sqrt(np.dot(u, u)))


def _norm_vstar(triple, u):
    return float(np.sqrt(np.dot(u / triple.v_weights[: u.shape[0]], u)))


def _v_norm_of(bundle, triple, u):
    if bundle.v_norm is not None:
        return float(bundle.v_norm(u))
    return float(np.sqrt(np.dot(triple.v_weights[: u.shape[0]] * u, u)))


def _finite_or_raise(value, name, witness):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise AuditFailure(f"{name} evaluated to a non-finite value", witness=witness)
    return arr


def _sample_states(triple, level, seed, name, count):
    """Axis extremes at each scale, then sample i drawn from its own stream (seed, audit-name, state, i)."""
    out = []
    for j in range(min(level, count)):
        for s in AUDIT_SCALES:
            e = np.zeros(level)
            e[j] = s
            out.append(e)
    for i in range(count):
        rng = derive_rng(seed, f"audit-{name}", "state", i)
        out.append(AUDIT_SCALES[i % len(AUDIT_SCALES)] * rng.standard_normal(level))
    return np.array(out)


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
        r = max(_v_norm_of(bundle, triple, u), _v_norm_of(bundle, triple, v))
        return pair, float(bundle.local_bound(t, r)) * h2

    if bundle.rho is None or bundle.eta is None:
        raise ValueError(f"mode {mode} requires the bundle to declare rho and eta")
    lhs = 2.0 * pair + _noise_difference_terms(bundle, t, u, v)
    rhs = (constants.f_at(t) + float(bundle.rho(u)) + float(bundle.eta(v))) * h2
    return lhs, rhs


def envelope_terms(bundle, constants, triple, mode, u):
    """(LHS, RHS) of the rho/eta envelope bound at state u."""
    h = _norm_h(u)
    vn = _v_norm_of(bundle, triple, u)
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


def coercivity_terms(bundle, constants, triple, t, u):
    """(LHS, RHS) of ⟨A(t,u),u⟩ ≤ f(t)(1+‖u‖_H²) − L_A ‖u‖_V^β.

    Part I declares coercivity with a factor 2 on the pairing; dividing by 2
    gives exactly this form with L_A = C/2 and f/2, so one margin serves
    both hypothesis sets.
    """
    a = _finite_or_raise(bundle.drift(t, u), "drift", {"t": t, "u": u.tolist()})
    lhs = float(np.dot(a, u))
    h2 = float(np.dot(u, u))
    vn = _v_norm_of(bundle, triple, u)
    rhs = constants.f_at(t) * (1.0 + h2) - constants.L_A * vn**constants.beta
    return lhs, rhs


def drift_growth_terms(bundle, constants, triple, part, t, u):
    """(LHS, RHS) of the dual-norm drift growth bound (part "I" or "II")."""
    a = _finite_or_raise(bundle.drift(t, u), "drift", {"t": t, "u": u.tolist()})
    beta = constants.beta
    lhs = _norm_vstar(triple, a) ** (beta / (beta - 1.0))
    h = _norm_h(u)
    vn = _v_norm_of(bundle, triple, u)
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
        vn = _v_norm_of(bundle, triple, u)
        rhs += constants.L_B * vn**constants.beta
    return lhs, rhs


def jump_growth_terms(bundle, constants, triple, part, p, t, u):
    """(LHS, RHS) of ∫‖γ‖^p dλ ≤ h_p(t)(1+‖u‖_H^p) [+ L_γ ‖u‖_H^{p−2}‖u‖_V^β]."""
    ms = bundle.mark_space
    lhs = 0.0
    for z, lam in zip(ms.marks, ms.weights):
        g = _finite_or_raise(bundle.jump(t, u, float(z)), "jump", {"t": t, "u": u.tolist()})
        lhs += lam * float(np.dot(g, g)) ** (p / 2.0)
    h = _norm_h(u)
    rhs = constants.h_p_at(p, t) * (1.0 + h**p)
    if part == "II":
        vn = _v_norm_of(bundle, triple, u)
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


def validate(spec, samples, seed):
    """The audit set of ``models.validate``, run through the serial scans."""
    bundle, constants, triple = spec.bundle, spec.constants, spec.triple
    entries = [audit_hemicontinuity(bundle, triple, samples, seed, constants=constants)]
    if spec.regime == "part1":
        mode = "H2" if (bundle.rho is not None and bundle.eta is not None) else "H2prime"
        entries.append(audit_local_monotonicity(bundle, constants, triple, mode, samples, seed))
        entries.extend(audit_coercivity_growth(bundle, constants, triple, "I", samples, seed))
        entries.extend(audit_sequential_continuity(bundle, constants, triple, samples, seed))
    else:
        entries.append(audit_local_monotonicity(bundle, constants, triple, "H2star", samples, seed))
        entries.extend(audit_coercivity_growth(bundle, constants, triple, "II", samples, seed))
        entries.append(_admissibility_entry(constants, samples))
    return HypothesisReport(entries=entries)
