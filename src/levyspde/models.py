"""Model zoo: concrete coefficient bundles with declared constants.

Grid-based models share a 1-D periodic spectral setup: the basis is the
real trigonometric family (constant, cos, sin pairs), which is discretely
orthonormal under the h-weighted dot product and diagonalizes both the
finite-difference Laplacian and the forward-difference gradient energy.
The triple weights are therefore ``w_j = 1 + mu_k`` with
``mu_k = (2 sin(pi k h) / h)^2``, so the diagonal V-norm equals the discrete
H1 norm exactly.  Nonlinear drifts evaluate pointwise on the grid and
project back; the transforms are plain matrix products (n = 64 keeps this
cheap and exactly invertible on the represented modes).

Builtin ids: ``heat``, ``p_laplacian``, ``allen_cahn``, ``burgers1d``,
``grad_noise_linear``.  2-D incompressible-flow models are an extension
point, deliberately not shipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    AuditFailure,
    CoefficientBundle,
    HypothesisConstants,
    HypothesisEntry,
    HypothesisReport,
    audit_coercivity_growth,
    audit_hemicontinuity,
    audit_local_monotonicity,
    audit_sequential_continuity,
    c1_of,
    chi_exponent,
)
from .noise import MarkSpace
from .spaces import GelfandTriple, dot_rows, libm_pow, triple_from_config

__all__ = ["ModelSpec", "SpectralGrid", "builtin", "validate", "from_config", "resolve", "BUILTIN_IDS"]

BUILTIN_IDS = ("heat", "p_laplacian", "allen_cahn", "burgers1d", "grad_noise_linear")

_DEFAULT_MARKS = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([0.5, 0.5]))


class SpectralGrid:
    """Periodic trig basis on n uniform points with cap coefficient modes."""

    def __init__(self, n: int, cap: int):
        if cap >= n // 2 * 2:
            raise ValueError("cap must keep every wavenumber below n/2")
        self.n = n
        self.cap = cap
        self.h = 1.0 / n
        x = np.arange(n) * self.h
        self.x = x
        phi = np.empty((n, cap))
        wavenumbers = np.empty(cap, dtype=int)
        phi[:, 0] = 1.0
        wavenumbers[0] = 0
        for j in range(1, cap):
            k = (j + 1) // 2
            wavenumbers[j] = k
            if j % 2 == 1:
                phi[:, j] = math.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
            else:
                phi[:, j] = math.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)
        if 2 * wavenumbers.max() >= n:
            raise ValueError("wavenumbers must stay below n/2 for exact orthonormality")
        self.phi = phi
        self.wavenumbers = wavenumbers
        self.mu = (2.0 * np.sin(np.pi * wavenumbers * self.h) / self.h) ** 2
        # the grid operators applied to each basis column, for the Jacobians
        self.dphi = self.d_centered(phi, axis=0)
        self.gphi = self.grad(phi, axis=0)

    # Transforms act on the last axis, so leading axes hold a batch.  The
    # stacked product ``phi @ u[..., None]`` gives every row the same bits
    # as its 1-D transform; ``u @ phi.T`` would not.

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        m = coeffs.shape[-1]
        return (self.phi[:, :m] @ coeffs[..., None])[..., 0]

    def to_coeffs(self, values: np.ndarray, m: int) -> np.ndarray:
        return self.h * (self.phi[:, :m].T @ values[..., None])[..., 0]

    def grad(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        return (np.roll(values, -1, axis) - values) / self.h

    def div_back(self, flux: np.ndarray, axis: int = -1) -> np.ndarray:
        # adjoint pair of grad: h sum u div_back(psi) = -h sum grad(u) psi
        return (flux - np.roll(flux, 1, axis)) / self.h

    def d_centered(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * self.h)


@dataclass(frozen=True)
class ModelSpec:
    """A wired model: triple, bundle, constants, regime, and a default state."""

    id: str
    triple: GelfandTriple
    bundle: CoefficientBundle
    constants: HypothesisConstants
    regime: str  # "part1" | "part2"
    default_x0: np.ndarray
    grid: SpectralGrid | None = None

    def __post_init__(self):
        if self.regime not in ("part1", "part2"):
            raise ValueError(f"regime must be part1 or part2, got {self.regime!r}")
        if self.regime == "part2":
            c = self.constants
            if c.theta_exp >= c.beta:
                raise ValueError(f"model {self.id}: part2 requires theta_exp < beta")
            chi = chi_exponent(c)
            lhs = c.L_B + 2.0 * c1_of(2.0) * c.L_gamma
            rhs = (2.0 * c.L_A + c.L_B) / chi
            if not lhs < rhs:
                raise ValueError(
                    f"model {self.id}: admissibility violated, "
                    f"L_B + 2 C1 L_gamma = {lhs:g} must be < {rhs:g}"
                )


# ---------------------------------------------------------------------------
# diagonal spectral models
# ---------------------------------------------------------------------------


def _diag(v: np.ndarray) -> np.ndarray:
    """(..., m) -> (..., m, m): each row of ``v`` on the diagonal of a zero matrix."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def _zero_functional(u) -> np.ndarray:
    return np.zeros(np.shape(u)[:-1])


def _diagonal_drift(spectrum: np.ndarray):
    """A(u) = -spectrum u: (drift, drift_jacobian, drift_implicit_solve)."""

    def drift(t, u):
        return -spectrum[: u.shape[-1]] * u

    def drift_jacobian(t, u):
        return -_diag(np.broadcast_to(spectrum[: u.shape[-1]], u.shape))

    def implicit_solve(t_next, x, dt):
        return x / (1.0 + dt * spectrum[: x.shape[-1]])

    return drift, drift_jacobian, implicit_solve


def _multiplicative_diffusion(c: float):
    def diffusion(t, u):
        return c * _diag(u)

    return diffusion


def _multiplicative_diffusion_matvec(c: float):
    def matvec(t, u, dw):
        return c * u * dw

    return matvec


def _multiplicative_jump(sigma: float):
    def jump(t, u, z):
        return sigma * z * u

    return jump


def _multiplicative_jump_weighted_sum(sigma: float, marks: MarkSpace):
    scale = sigma * float(np.sum(marks.weights * marks.marks))

    def weighted_sum(t, u):
        return scale * u

    return weighted_sum


def _zero_diffusion(t, u):
    return np.zeros(u.shape + u.shape[-1:])


def _zero_jump(t, u, z):
    return np.zeros(u.shape)


def _heat(cap: int = 48, c_wiener: float = 0.25, sigma_jump: float = 0.2,
          marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    j = np.arange(1, cap + 1, dtype=float)
    weights = j**2
    triple = GelfandTriple(dimension_cap=cap, v_weights=weights, name="heat")
    w = triple.v_weights

    drift, drift_jacobian, implicit_solve = _diagonal_drift(w)

    m2 = marks.moment(2.0)
    bundle = CoefficientBundle(
        drift=drift,
        diffusion=_multiplicative_diffusion(c_wiener),
        jump=_multiplicative_jump(sigma_jump),
        mark_space=marks,
        rho=_zero_functional,
        eta=_zero_functional,
        local_bound=lambda t, r: 0.0,
        drift_jacobian=drift_jacobian,
        drift_implicit_solve=implicit_solve,
        diffusion_matvec=_multiplicative_diffusion_matvec(c_wiener),
        jump_weighted_sum=_multiplicative_jump_weighted_sum(sigma_jump, marks),
    )
    constants = HypothesisConstants(
        beta=2.0,
        f_integral=0.0,
        g_integral=c_wiener**2,
        h_p_integrals={
            2.0: sigma_jump**2 * m2,
            4.0: sigma_jump**4 * marks.moment(4.0),
        },
        C_monotone=1.0,
        C_growth=1.0,
        zeta=0.0,
        alpha=0.0,
        L_A=1.0,
    )
    x0 = 1.0 / np.arange(1, cap + 1, dtype=float)
    return ModelSpec(id="heat", triple=triple, bundle=bundle, constants=constants,
                     regime="part1", default_x0=x0)


def _grad_noise_linear(cap: int = 32, c_b: float = 0.1, c_gamma: float = 0.05,
                       marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    j = np.arange(1, cap + 1, dtype=float)
    triple = GelfandTriple(dimension_cap=cap, v_weights=j**2, name="grad_noise_linear")
    w = triple.v_weights
    sqrt_w = np.sqrt(w)

    drift, drift_jacobian, implicit_solve = _diagonal_drift(w)

    def diffusion(t, u):
        return c_b * _diag(sqrt_w[: u.shape[-1]] * u)

    def jump(t, u, z):
        return c_gamma * z * sqrt_w[: u.shape[-1]] * u

    def diffusion_matvec(t, u, dw):
        return c_b * sqrt_w[: u.shape[-1]] * u * dw

    gamma_scale = c_gamma * float(np.sum(marks.weights * marks.marks))

    def jump_weighted_sum(t, u):
        return gamma_scale * sqrt_w[: u.shape[-1]] * u

    m2 = marks.moment(2.0)
    bundle = CoefficientBundle(
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        mark_space=marks,
        rho=_zero_functional,
        eta=_zero_functional,
        local_bound=lambda t, r: 0.0,
        drift_jacobian=drift_jacobian,
        drift_implicit_solve=implicit_solve,
        diffusion_matvec=diffusion_matvec,
        jump_weighted_sum=jump_weighted_sum,
    )
    constants = HypothesisConstants(
        beta=2.0,
        C_monotone=1.0,
        C_growth=1.0,
        L_A=1.0,
        L_B=c_b**2,
        L_gamma=c_gamma**2 * m2,
        h_p_integrals={2.0: 0.0},
    )
    x0 = 1.0 / np.arange(1, cap + 1, dtype=float)
    return ModelSpec(id="grad_noise_linear", triple=triple, bundle=bundle,
                     constants=constants, regime="part2", default_x0=x0)


# ---------------------------------------------------------------------------
# grid models
# ---------------------------------------------------------------------------


def _grid_triple(name: str, grid: SpectralGrid) -> GelfandTriple:
    return GelfandTriple(
        dimension_cap=grid.cap,
        v_weights=1.0 + grid.mu,
        name=name,
        grid_size=grid.n,
    )


def _default_grid_x0(grid: SpectralGrid) -> np.ndarray:
    profile = np.sin(2.0 * np.pi * grid.x) + 0.5 * np.cos(4.0 * np.pi * grid.x)
    return grid.to_coeffs(profile, grid.cap)


def _allen_cahn(n: int = 64, cap: int = 33, c_wiener: float = 0.2, sigma_jump: float = 0.15,
                marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    grid = SpectralGrid(n, cap)
    triple = _grid_triple("allen_cahn", grid)
    mu = grid.mu
    h = grid.h

    def drift(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        cubic = grid.to_coeffs(vals**3, m)
        return (1.0 - mu[:m]) * u - cubic

    def drift_jacobian(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        phi = grid.phi[:, :m]
        return np.diag(1.0 - mu[:m]) - 3.0 * h * (phi.T * (vals**2)[..., None, :]) @ phi

    def sup_norm_sq(u):
        return libm_pow(np.max(np.abs(grid.to_grid(u)), axis=-1), 2.0)

    m2 = marks.moment(2.0)
    bundle = CoefficientBundle(
        drift=drift,
        diffusion=_multiplicative_diffusion(c_wiener),
        jump=_multiplicative_jump(sigma_jump),
        mark_space=marks,
        rho=lambda u: 1.5 * sup_norm_sq(u),
        eta=lambda u: 1.5 * sup_norm_sq(u),
        local_bound=lambda t, r: 1.0,
        drift_jacobian=drift_jacobian,
        diffusion_matvec=_multiplicative_diffusion_matvec(c_wiener),
        jump_weighted_sum=_multiplicative_jump_weighted_sum(sigma_jump, marks),
    )
    constants = HypothesisConstants(
        beta=2.0,
        f_integral=2.0 + c_wiener**2 + sigma_jump**2 * m2,
        g_integral=c_wiener**2,
        h_p_integrals={
            2.0: sigma_jump**2 * m2,
            4.0: sigma_jump**4 * marks.moment(4.0),
        },
        C_monotone=12.0,
        C_growth=12.0,
        zeta=0.0,
        alpha=4.0,
        L_A=1.0,
    )
    return ModelSpec(id="allen_cahn", triple=triple, bundle=bundle, constants=constants,
                     regime="part1", default_x0=_default_grid_x0(grid), grid=grid)


def _burgers1d(n: int = 64, cap: int = 33, nu: float = 0.1, c_wiener: float = 0.15,
               sigma_jump: float = 0.1, marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    grid = SpectralGrid(n, cap)
    triple = _grid_triple("burgers1d", grid)
    mu = grid.mu
    h = grid.h
    w = triple.v_weights

    def convection(vals):
        # skew form of u u_x: exactly energy free on the periodic grid
        return (vals * grid.d_centered(vals) + grid.d_centered(vals * vals)) / 3.0

    def drift(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        conv = grid.to_coeffs(convection(vals), m)
        return -nu * mu[:m] * u - conv

    def drift_jacobian(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        col = vals[..., :, None]
        phi = grid.phi[:, :m]
        # d/du of the skew form applied to phi columns
        jac_grid = (col * grid.dphi[:, :m] + grid.d_centered(vals)[..., :, None] * phi) / 3.0
        jac_grid += 2.0 * grid.d_centered(col * phi, axis=-2) / 3.0
        conv_jac = h * phi.T @ jac_grid
        return -nu * np.diag(mu[:m]) - conv_jac

    k_mono = 8.0 * (1.0 + 1.0 / nu)

    def rho(u):
        vn = np.sqrt(dot_rows(w[: u.shape[-1]] * u, u))
        return k_mono * (1.0 + libm_pow(vn, 4.0 / 3.0))

    m2 = marks.moment(2.0)
    bundle = CoefficientBundle(
        drift=drift,
        diffusion=_multiplicative_diffusion(c_wiener),
        jump=_multiplicative_jump(sigma_jump),
        mark_space=marks,
        rho=rho,
        eta=rho,
        local_bound=lambda t, r: 2.0 * k_mono * (1.0 + r ** (4.0 / 3.0)),
        drift_jacobian=drift_jacobian,
        diffusion_matvec=_multiplicative_diffusion_matvec(c_wiener),
        jump_weighted_sum=_multiplicative_jump_weighted_sum(sigma_jump, marks),
    )
    constants = HypothesisConstants(
        beta=2.0,
        f_integral=2.0 * nu + c_wiener**2 + sigma_jump**2 * m2,
        g_integral=c_wiener**2,
        h_p_integrals={
            2.0: sigma_jump**2 * m2,
            4.0: sigma_jump**4 * marks.moment(4.0),
        },
        C_monotone=4.0 * k_mono,
        C_growth=16.0 * (1.0 + nu**2),
        zeta=0.0,
        alpha=2.0,
        L_A=nu,
    )
    return ModelSpec(id="burgers1d", triple=triple, bundle=bundle, constants=constants,
                     regime="part1", default_x0=_default_grid_x0(grid), grid=grid)


def _p_laplacian(n: int = 64, cap: int = 33, p: float = 4.0, c_wiener: float = 0.1) -> ModelSpec:
    grid = SpectralGrid(n, cap)
    triple = _grid_triple("p_laplacian", grid)
    h = grid.h
    marks = MarkSpace.zero()

    def drift(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        g = grid.grad(vals)
        flux = np.abs(g) ** (p - 2.0) * g
        a_grid = grid.div_back(flux) - np.abs(vals) ** (p - 2.0) * vals
        return grid.to_coeffs(a_grid, m)

    def drift_jacobian(t, u):
        m = u.shape[-1]
        vals = grid.to_grid(u)
        g = grid.grad(vals)
        phi = grid.phi[:, :m]
        flux_slope = (p - 1.0) * np.abs(g) ** (p - 2.0)
        div_part = grid.div_back(flux_slope[..., :, None] * grid.gphi[:, :m], axis=-2)
        react_slope = (p - 1.0) * np.abs(vals) ** (p - 2.0)
        jac_grid = div_part - react_slope[..., :, None] * phi
        return h * phi.T @ jac_grid

    def v_norm(u):
        vals = grid.to_grid(u)
        g = grid.grad(vals)
        total = h * np.sum(np.abs(g) ** p, axis=-1) + h * np.sum(np.abs(vals) ** p, axis=-1)
        return libm_pow(total, 1.0 / p)

    bundle = CoefficientBundle(
        drift=drift,
        diffusion=_multiplicative_diffusion(c_wiener),
        jump=_zero_jump,
        mark_space=marks,
        rho=_zero_functional,
        eta=_zero_functional,
        local_bound=lambda t, r: 0.0,
        v_norm=v_norm,
        drift_jacobian=drift_jacobian,
        diffusion_matvec=_multiplicative_diffusion_matvec(c_wiener),
    )
    constants = HypothesisConstants(
        beta=p,
        f_integral=c_wiener**2,
        g_integral=c_wiener**2,
        h_p_integrals={},
        C_monotone=1.0,
        C_growth=36.0,
        zeta=0.0,
        alpha=0.0,
        L_A=1.0,
    )
    return ModelSpec(id="p_laplacian", triple=triple, bundle=bundle, constants=constants,
                     regime="part1", default_x0=_default_grid_x0(grid), grid=grid)


_BUILDERS = {
    "heat": _heat,
    "p_laplacian": _p_laplacian,
    "allen_cahn": _allen_cahn,
    "burgers1d": _burgers1d,
    "grad_noise_linear": _grad_noise_linear,
}


def builtin(model_id: str, **overrides) -> ModelSpec:
    """Build a zoo model by id; unknown ids raise ValueError."""
    try:
        builder = _BUILDERS[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(BUILTIN_IDS)}")
    return builder(**overrides)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(spec: ModelSpec, samples: int = 1000, seed: int = 0) -> HypothesisReport:
    """Run the regime-appropriate audit set and return the report.

    An audit whose coefficients evaluate to a non-finite value ends in a
    failing entry (margin NaN) that names the coefficient in its witness.
    Every other entry still runs, the other coercivity and growth entries
    included.
    """
    bundle, constants, triple = spec.bundle, spec.constants, spec.triple
    if spec.regime == "part1":
        mode = "H2" if (bundle.rho is not None and bundle.eta is not None) else "H2prime"
        part = "I"
    else:
        mode, part = "H2star", "II"
    audits = [
        lambda: [audit_hemicontinuity(bundle, triple, samples, seed, constants=constants)],
        lambda: [audit_local_monotonicity(bundle, constants, triple, mode, samples, seed)],
        lambda: audit_coercivity_growth(bundle, constants, triple, part, samples, seed),
    ]
    if spec.regime == "part1":
        audits.append(lambda: audit_sequential_continuity(bundle, constants, triple, samples, seed))
    else:
        audits.append(lambda: [_admissibility_entry(constants, samples)])
    entries = []
    for audit in audits:
        try:
            entries.extend(audit())
        except AuditFailure as exc:
            entries.append(exc.entry(samples))
    return HypothesisReport(entries=entries)


def _admissibility_entry(constants: HypothesisConstants, samples: int):
    chi = chi_exponent(constants)
    lhs = constants.L_B + 2.0 * c1_of(2.0) * constants.L_gamma
    rhs = (2.0 * constants.L_A + constants.L_B) / chi
    return HypothesisEntry(
        name="admissibility-4.7",
        worst_margin=rhs - lhs,
        witness={"chi": chi, "lhs": lhs, "rhs": rhs},
        samples_used=samples,
        tolerance=0.0,
    )


# ---------------------------------------------------------------------------
# custom models from config records (coefficient tables, no code execution)
# ---------------------------------------------------------------------------


def from_config(cfg: dict) -> ModelSpec:
    """Build a custom model from a plain-data description.

    Supported drift: ``{"type": "diagonal", "scale": s}`` (A = -s w_j u_j)
    or ``{"type": "diagonal_spectrum", "values": [...]}``, optionally plus a
    pointwise polynomial reaction ``{"reaction": [c0, c1, c2, ...]}``
    evaluated on an attached grid.  Diffusion types: ``zero``,
    ``multiplicative_h`` (c u per mode), ``multiplicative_v`` (c sqrt(w) u).
    Jump types: ``zero``, ``multiplicative_mark`` (sigma z u),
    ``multiplicative_v_mark`` (sigma z sqrt(w) u).
    """
    name = cfg.get("name", "custom")
    cap = int(cfg["triple"]["dimension_cap"])
    grid_size = cfg["triple"].get("grid_size")
    reaction = cfg.get("reaction")

    tcfg = dict(cfg["triple"], name=name)
    grid = None
    if grid_size:
        # the grid's own weights make the diagonal V-norm the discrete H1 norm
        grid = SpectralGrid(int(grid_size), cap)
        tcfg["weights"] = 1.0 + grid.mu
    elif reaction:
        raise ValueError("polynomial reaction terms require triple.grid_size")
    triple = triple_from_config(tcfg)

    dcfg = cfg.get("drift", {"type": "diagonal", "scale": 1.0})
    if dcfg["type"] == "diagonal":
        spectrum = float(dcfg.get("scale", 1.0)) * triple.v_weights
    elif dcfg["type"] == "diagonal_spectrum":
        spectrum = np.asarray(dcfg["values"], dtype=float)
        if spectrum.shape != (cap,):
            raise ValueError(f"drift.values must have length {cap}")
    else:
        raise ValueError(f"unknown drift type {dcfg['type']!r}")
    if not reaction:
        drift, drift_jacobian, implicit_solve = _diagonal_drift(spectrum)
    else:
        poly = np.asarray(reaction, dtype=float)
        dpoly = np.polyder(np.poly1d(poly[::-1]))
        implicit_solve = None

        def drift(t, u):
            m = u.shape[-1]
            return -spectrum[:m] * u + grid.to_coeffs(np.polyval(poly[::-1], grid.to_grid(u)), m)

        def drift_jacobian(t, u):
            m = u.shape[-1]
            vals = grid.to_grid(u)
            phi = grid.phi[:, :m]
            return -np.diag(spectrum[:m]) + grid.h * (phi.T * dpoly(vals)[..., None, :]) @ phi

    mcfg = cfg.get("marks", {"points": [], "weights": []})
    marks = (
        MarkSpace(marks=np.asarray(mcfg["points"], dtype=float),
                  weights=np.asarray(mcfg["weights"], dtype=float))
        if mcfg.get("points")
        else MarkSpace.zero()
    )

    bcfg = cfg.get("diffusion", {"type": "zero"})
    if bcfg["type"] == "zero":
        diffusion = _zero_diffusion
    elif bcfg["type"] == "multiplicative_h":
        diffusion = _multiplicative_diffusion(float(bcfg["c"]))
    elif bcfg["type"] == "multiplicative_v":
        sqrt_w = np.sqrt(triple.v_weights)
        c_b = float(bcfg["c"])

        def diffusion(t, u):
            return c_b * _diag(sqrt_w[: u.shape[-1]] * u)
    else:
        raise ValueError(f"unknown diffusion type {bcfg['type']!r}")

    jcfg = cfg.get("jump", {"type": "zero"})
    if jcfg["type"] == "zero":
        jump = _zero_jump
    elif jcfg["type"] == "multiplicative_mark":
        jump = _multiplicative_jump(float(jcfg["sigma"]))
    elif jcfg["type"] == "multiplicative_v_mark":
        sqrt_wj = np.sqrt(triple.v_weights)
        sig = float(jcfg["sigma"])

        def jump(t, u, z):
            return sig * z * sqrt_wj[: u.shape[-1]] * u
    else:
        raise ValueError(f"unknown jump type {jcfg['type']!r}")

    ccfg = dict(cfg.get("constants", {}))
    ccfg.setdefault("beta", 2.0)
    if "h_p_integrals" in ccfg:
        ccfg["h_p_integrals"] = {float(k): float(v) for k, v in ccfg["h_p_integrals"].items()}
    constants = HypothesisConstants(**ccfg)

    x0 = np.asarray(cfg["x0"], dtype=float) if "x0" in cfg else 1.0 / np.arange(1, cap + 1)
    bundle = CoefficientBundle(
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        mark_space=marks,
        rho=_const_functional(cfg.get("rho_const", 0.0)),
        eta=_const_functional(cfg.get("eta_const", 0.0)),
        local_bound=(lambda t, r: float(cfg.get("local_bound_const", 0.0))),
        drift_jacobian=drift_jacobian,
        drift_implicit_solve=implicit_solve,
    )
    return ModelSpec(
        id=name,
        triple=triple,
        bundle=bundle,
        constants=constants,
        regime=cfg.get("regime", "part1"),
        default_x0=x0,
        grid=grid,
    )


def _const_functional(value: float):
    v = float(value)
    return lambda u: np.full(np.shape(u)[:-1], v)


def resolve(ref) -> ModelSpec:
    """Resolve a builtin id or a custom config dict to a ModelSpec."""
    if isinstance(ref, str):
        return builtin(ref)
    if isinstance(ref, dict):
        return from_config(ref)
    if isinstance(ref, ModelSpec):
        return ref
    raise TypeError(f"cannot resolve model reference of type {type(ref).__name__}")
