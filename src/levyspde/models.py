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

A grid drift's Jacobian is its diagonal linear part plus a contraction
``Σ_i w_i(v) T_i`` of pointwise weights w(v), v = ``to_grid(u)``, with a
fixed (n, m, m) table of the grid: the Gram table φ_i φ_iᵀ of the basis
rows (allen_cahn, the polynomial reaction, the p-Laplacian's reaction),
the Gram table of their forward differences (the p-Laplacian's flux, whose
contraction it adds to its reaction's), and Burgers' skew convection
table.  ``SpectralGrid.contract`` builds each table once per level, at its
first call, and caches it.

The diagonal models ``heat`` (part I) and ``grad_noise_linear`` (part II)
are plain config records that ``from_config`` reads, as it reads a custom
model: one builder serves both, so a config that declares the same
coefficients steps exactly like the builtin.

Builtin ids: ``heat``, ``p_laplacian``, ``allen_cahn``, ``burgers1d``,
``grad_noise_linear``.  2-D incompressible-flow models are an extension
point, deliberately not shipped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
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
from .spaces import ConfigError, GelfandTriple, dot_rows, known, libm_pow, read, triple_from_config

__all__ = ["ModelSpec", "SpectralGrid", "builtin", "validate", "from_config", "resolve", "BUILTIN_IDS"]

BUILTIN_IDS = ("heat", "p_laplacian", "allen_cahn", "burgers1d", "grad_noise_linear")

_DEFAULT_MARKS = MarkSpace(marks=np.array([1.0, -1.0]), weights=np.array([0.5, 0.5]))


class SpectralGrid:
    """Periodic trig basis on n uniform points with cap coefficient modes."""

    def __init__(self, n: int, cap: int):
        if cap < 1:
            raise ValueError("dimension_cap must be positive")
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
        # periodic neighbours of each grid point: the stencils gather with
        # them, which gives np.roll's values without its per-call slicing
        self._next = (np.arange(n) + 1) % n
        self._prev = (np.arange(n) - 1) % n
        # the grid operators applied to each basis column, for the Jacobian tables
        self.dphi = self.d_centered(phi, axis=0)
        self.gphi = self.grad(phi, axis=0)
        self._tables = {}  # (name, level) -> contiguous (n, m * m) table

    # Transforms act on the last axis, so leading axes hold a batch.  The
    # stacked product ``phi @ u[..., None]`` gives every row the same bits
    # as its 1-D transform; ``u @ phi.T`` would not.

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        m = coeffs.shape[-1]
        return (self.phi[:, :m] @ coeffs[..., None])[..., 0]

    def to_coeffs(self, values: np.ndarray, m: int) -> np.ndarray:
        return self.h * (self.phi[:, :m].T @ values[..., None])[..., 0]

    def grad(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        return (np.take(values, self._next, axis=axis) - values) / self.h

    def div_back(self, flux: np.ndarray, axis: int = -1) -> np.ndarray:
        # adjoint pair of grad: h sum u div_back(psi) = -h sum grad(u) psi
        return (flux - np.take(flux, self._prev, axis=axis)) / self.h

    def d_centered(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        return (np.take(values, self._next, axis=axis)
                - np.take(values, self._prev, axis=axis)) / (2.0 * self.h)

    # The Jacobian tables: T[i] is the (m, m) matrix that grid point i's
    # weight multiplies.  The stacked product ``w[..., None, :] @ table``
    # runs one vector-matrix product per row, so each row keeps the bits of
    # its 1-D contraction in any batch, as in ``to_grid``.

    def contract(self, weights: np.ndarray, table: str, m: int) -> np.ndarray:
        """Σ_i weights[..., i] T[i] of the named table at level m: (..., m, m).

        ``table`` is ``"gram"`` (φ_i φ_iᵀ), ``"grad_gram"`` (∇φ_i ∇φ_iᵀ) or
        ``"convection"`` (the derivative of Burgers' skew convection
        coefficients along grid value i).
        """
        flat = self._tables.get((table, m))
        if flat is None:
            flat = self._tables[(table, m)] = np.ascontiguousarray(
                getattr(self, "_" + table)(m).reshape(self.n, m * m))
        return (weights[..., None, :] @ flat).reshape(weights.shape[:-1] + (m, m))

    def _gram(self, m: int) -> np.ndarray:
        phi = self.phi[:, :m]
        return phi[:, :, None] * phi[:, None, :]

    def _grad_gram(self, m: int) -> np.ndarray:
        gphi = self.gphi[:, :m]
        return gphi[:, :, None] * gphi[:, None, :]

    def _convection(self, m: int) -> np.ndarray:
        # the coefficients h Φᵀ (v Dv + D(v²)) / 3 are bilinear in v; the
        # adjoint h Σ a Db = -h Σ Da b moves D off v in two of the terms
        phi, dphi = self.phi[:, :m], self.dphi[:, :m]
        return self.h / 3.0 * (phi[:, :, None] * dphi[:, None, :]
                               - self.d_centered(phi[:, :, None] * phi[:, None, :], axis=0)
                               - 2.0 * dphi[:, :, None] * phi[:, None, :])


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
            sides = _admissibility_entry(c, 0).witness
            if not sides["lhs"] < sides["rhs"]:
                raise ValueError(
                    f"model {self.id}: admissibility violated, "
                    f"L_B + 2 C1 L_gamma = {sides['lhs']:g} must be < {sides['rhs']:g}"
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


def _plus_diagonal(jac: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """``jac`` (..., m, m) with ``diagonal`` (m,) added to each matrix's
    diagonal, in place: ``np.diag(diagonal) + jac`` would copy the batch."""
    i = np.arange(diagonal.size)
    jac[..., i, i] += diagonal
    return jac


def _diagonal_drift(spectrum: np.ndarray):
    """A(u) = -spectrum u: (drift, drift_jacobian, drift_implicit_solve)."""

    def drift(t, u):
        return -spectrum[: u.shape[-1]] * u

    def drift_jacobian(t, u):
        return -_diag(np.broadcast_to(spectrum[: u.shape[-1]], u.shape))

    def implicit_solve(t_next, x, dt):
        return x / (1.0 + dt * spectrum[: x.shape[-1]])

    return drift, drift_jacobian, implicit_solve


def _multiplicative_noise(sqrt_w: np.ndarray | None, c: float | None = None, sigma: float = 0.0,
                          marks: MarkSpace | None = None) -> dict:
    """Bundle fields of B(u) = c diag(s u) and γ(u, z) = σ z s u for a mode scale s.

    ``sqrt_w`` is None for the H family (s = 1) and √w for the V family,
    whose noise grows with the V-norm (part II).  Each family comes whole
    with its closed form: ``diffusion`` and ``diffusion_matvec`` when ``c``
    is given, ``jump`` and ``jump_weighted_sum`` when ``marks`` is given.
    In the H family every factor of s is the float 1, so c u and σ z u keep
    their bits and their scalar speed.
    """

    def times_s(factor: float):
        """m -> factor s_1..m, formed once; a float in the H family."""
        if sqrt_w is None:
            return lambda m: factor
        scaled = factor * sqrt_w
        return lambda m: scaled[:m]

    s = times_s(1.0)
    fields = {}
    if c is not None:
        c_s = times_s(c)

        def diffusion(t, u):
            return c * _diag(s(u.shape[-1]) * u)

        def diffusion_matvec(t, u, dw):
            return c_s(u.shape[-1]) * u * dw

        fields.update(diffusion=diffusion, diffusion_matvec=diffusion_matvec)
    if marks is None:
        return fields
    density_s = times_s(sigma * float(np.sum(marks.weights * marks.marks)))

    def jump(t, u, z):
        return sigma * z * s(u.shape[-1]) * u

    def jump_weighted_sum(t, u):
        return density_s(u.shape[-1]) * u

    return dict(fields, jump=jump, jump_weighted_sum=jump_weighted_sum)


def _zero_diffusion(t, u):
    return np.zeros(u.shape + u.shape[-1:])


def _zero_jump(t, u, z):
    return np.zeros(u.shape)


def _jump_moments(sigma: float, marks: MarkSpace) -> dict:
    """h_p integrals {2: σ² m₂, 4: σ⁴ m₄} of γ = σ z u, the H-family jump."""
    return {2.0: sigma**2 * marks.moment(2.0), 4.0: sigma**4 * marks.moment(4.0)}


def _marks_record(marks: MarkSpace) -> dict:
    """``marks`` as a config ``marks`` record; the zero measure is the empty one."""
    return {} if marks.is_zero else {"points": marks.marks.tolist(), "weights": marks.weights.tolist()}


def _heat(cap: int = 48, c_wiener: float = 0.25, sigma_jump: float = 0.2,
          marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    return from_config({
        "name": "heat",
        "triple": {"dimension_cap": cap},
        "marks": _marks_record(marks),
        "diffusion": {"type": "multiplicative_h", "c": c_wiener},
        "jump": {"type": "multiplicative_mark", "sigma": sigma_jump},
        "constants": {"g_integral": c_wiener**2, "h_p_integrals": _jump_moments(sigma_jump, marks),
                      "C_monotone": 1.0, "C_growth": 1.0, "L_A": 1.0},
    })


def _grad_noise_linear(cap: int = 32, c_b: float = 0.1, c_gamma: float = 0.05,
                       marks: MarkSpace = _DEFAULT_MARKS) -> ModelSpec:
    return from_config({
        "name": "grad_noise_linear",
        "triple": {"dimension_cap": cap},
        "marks": _marks_record(marks),
        "diffusion": {"type": "multiplicative_v", "c": c_b},
        "jump": {"type": "multiplicative_v_mark", "sigma": c_gamma},
        "constants": {"C_monotone": 1.0, "C_growth": 1.0, "L_A": 1.0, "L_B": c_b**2,
                      "L_gamma": c_gamma**2 * marks.moment(2.0), "h_p_integrals": {2.0: 0.0}},
        "regime": "part2",
    })


# ---------------------------------------------------------------------------
# grid models
# ---------------------------------------------------------------------------


def _grid_triple(name: str, grid: SpectralGrid) -> GelfandTriple:
    return GelfandTriple(dimension_cap=grid.cap, v_weights=1.0 + grid.mu, name=name)


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
        # products, not vals**3: numpy's SIMD power rounds some inputs
        # differently from libm, and it is far slower
        cubic = grid.to_coeffs(vals * vals * vals, m)
        return (1.0 - mu[:m]) * u - cubic

    def drift_jacobian(t, u):
        # no name holds the grid values, so a batch keeps at most two
        # (..., n) or (..., m, m) arrays alive at a time
        m = u.shape[-1]
        jac = grid.contract(-3.0 * h * grid.to_grid(u) ** 2, "gram", m)
        return _plus_diagonal(jac, 1.0 - mu[:m])

    def sup_norm_sq(u):
        return libm_pow(np.max(np.abs(grid.to_grid(u)), axis=-1), 2.0)

    bundle = CoefficientBundle(
        drift=drift,
        mark_space=marks,
        rho=lambda u: 1.5 * sup_norm_sq(u),
        eta=lambda u: 1.5 * sup_norm_sq(u),
        local_bound=lambda t, r: 1.0,
        drift_jacobian=drift_jacobian,
        **_multiplicative_noise(None, c_wiener, sigma_jump, marks),
    )
    constants = HypothesisConstants(
        beta=2.0,
        f_integral=2.0 + c_wiener**2 + sigma_jump**2 * marks.moment(2.0),
        g_integral=c_wiener**2,
        h_p_integrals=_jump_moments(sigma_jump, marks),
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
        return _plus_diagonal(grid.contract(-grid.to_grid(u), "convection", m), -nu * mu[:m])

    k_mono = 8.0 * (1.0 + 1.0 / nu)

    def rho(u):
        vn = np.sqrt(dot_rows(w[: u.shape[-1]] * u, u))
        return k_mono * (1.0 + libm_pow(vn, 4.0 / 3.0))

    bundle = CoefficientBundle(
        drift=drift,
        mark_space=marks,
        rho=rho,
        eta=rho,
        local_bound=lambda t, r: 2.0 * k_mono * (1.0 + r ** (4.0 / 3.0)),
        drift_jacobian=drift_jacobian,
        **_multiplicative_noise(None, c_wiener, sigma_jump, marks),
    )
    constants = HypothesisConstants(
        beta=2.0,
        f_integral=2.0 * nu + c_wiener**2 + sigma_jump**2 * marks.moment(2.0),
        g_integral=c_wiener**2,
        h_p_integrals=_jump_moments(sigma_jump, marks),
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
        # h Φᵀ div_back(s ∇Φ) = -h (∇Φ)ᵀ s ∇Φ: both parts are Gram contractions
        m = u.shape[-1]
        vals = grid.to_grid(u)
        flux_slope = (p - 1.0) * np.abs(grid.grad(vals)) ** (p - 2.0)
        react_slope = (p - 1.0) * np.abs(vals) ** (p - 2.0)
        return (grid.contract(-h * flux_slope, "grad_gram", m)
                + grid.contract(-h * react_slope, "gram", m))

    def v_norm(u):
        vals = grid.to_grid(u)
        g = grid.grad(vals)
        total = h * np.sum(np.abs(g) ** p, axis=-1) + h * np.sum(np.abs(vals) ** p, axis=-1)
        return libm_pow(total, 1.0 / p)

    bundle = CoefficientBundle(
        drift=drift,
        jump=_zero_jump,
        mark_space=marks,
        rho=_const_functional(0.0),
        eta=_const_functional(0.0),
        local_bound=lambda t, r: 0.0,
        v_norm=v_norm,
        drift_jacobian=drift_jacobian,
        **_multiplicative_noise(None, c_wiener),
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

    An entry whose coefficients evaluate to a non-finite value fails with
    margin NaN and names the coefficient in its witness; every other entry
    still runs.
    """
    bundle, constants, triple = spec.bundle, spec.constants, spec.triple
    if spec.regime == "part1":
        mode = "H2" if (bundle.rho is not None and bundle.eta is not None) else "H2prime"
        part = "I"
    else:
        mode, part = "H2star", "II"
    entries = [
        audit_hemicontinuity(bundle, triple, samples, seed, constants=constants),
        audit_local_monotonicity(bundle, constants, triple, mode, samples, seed),
        *audit_coercivity_growth(bundle, constants, triple, part, samples, seed),
    ]
    if spec.regime == "part1":
        entries += audit_sequential_continuity(bundle, constants, triple, samples, seed)
    else:
        entries.append(_admissibility_entry(constants, samples))
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
    ``multiplicative_v_mark`` (sigma z sqrt(w) u).  Each multiplicative
    family brings its closed form, ``diffusion_matvec`` or
    ``jump_weighted_sum``, as the grid builtins do.  The builtins ``heat``
    and ``grad_noise_linear`` are records read here, so a record that
    declares their coefficients builds the same model.

    A value of the wrong kind raises ``ConfigError``, a ``ValueError`` that
    names its field under ``model.``, such as ``model.triple.dimension_cap``;
    the triple, grid, marks, constants and regime check their own ranges,
    and a range error names the record it was read from (``model.triple``,
    ``model.marks``, ``model.constants``, ``model.regime``).  A key that the
    record (or its ``type``) does not read is a ``ConfigError`` on that key.
    """
    known(cfg, "model", "name", "triple", "reaction", "drift", "marks", "diffusion", "jump", "x0",
          "rho_const", "eta_const", "constants", "regime")
    name = read(cfg, "name", "model", str, "custom")
    tcfg = read(cfg, "triple", "model", dict)
    cap = read(tcfg, "dimension_cap", "model.triple", int)
    grid_size = read(tcfg, "grid_size", "model.triple", int, None)
    weight_rule = () if grid_size else ("weights", "rule", "scale")  # a grid brings its own weights
    known(tcfg, "model.triple", "dimension_cap", "grid_size", *weight_rule)
    reaction = read(cfg, "reaction", "model", np.ndarray, None)

    grid = None
    if grid_size:
        # the grid's own weights make the diagonal V-norm the discrete H1 norm
        grid = _built("model.triple", SpectralGrid, grid_size, cap)
        triple = _built("model.triple", _grid_triple, name, grid)
    elif reaction is not None:
        raise ConfigError("model.triple.grid_size", "polynomial reaction terms require a grid")
    else:
        triple = _built("model.triple", triple_from_config, dict(tcfg, name=name))

    dcfg = read(cfg, "drift", "model", dict, {"type": "diagonal"})
    dtype = read(dcfg, "type", "model.drift", str)
    if dtype == "diagonal":
        known(dcfg, "model.drift", "type", "scale")
        spectrum = read(dcfg, "scale", "model.drift", float, 1.0) * triple.v_weights
    elif dtype == "diagonal_spectrum":
        known(dcfg, "model.drift", "type", "values")
        spectrum = read(dcfg, "values", "model.drift", np.ndarray)
        if spectrum.shape != (cap,):
            raise ConfigError("model.drift.values", f"expected length {cap}")
    else:
        raise ConfigError("model.drift.type", f"unknown drift type {dtype!r}")
    if reaction is None:
        drift, drift_jacobian, implicit_solve = _diagonal_drift(spectrum)
    else:
        poly = reaction[::-1]  # highest power first, as np.polyval takes it
        dpoly = np.polyder(np.poly1d(poly))
        implicit_solve = None

        def drift(t, u):
            m = u.shape[-1]
            return -spectrum[:m] * u + grid.to_coeffs(np.polyval(poly, grid.to_grid(u)), m)

        def drift_jacobian(t, u):
            m = u.shape[-1]
            jac = grid.contract(grid.h * dpoly(grid.to_grid(u)), "gram", m)
            return _plus_diagonal(jac, -spectrum[:m])

    mcfg = known(read(cfg, "marks", "model", dict, {}), "model.marks", "points", "weights")
    points = read(mcfg, "points", "model.marks", np.ndarray, None)
    marks = (
        MarkSpace.zero() if points is None
        else _built("model.marks", MarkSpace, points,
                    read(mcfg, "weights", "model.marks", np.ndarray))
    )

    # the H family scales every mode by 1 (None), the V family by sqrt(w_j)
    sqrt_w = np.sqrt(triple.v_weights)
    noise = {"diffusion": _zero_diffusion, "jump": _zero_jump}
    bcfg = read(cfg, "diffusion", "model", dict, {"type": "zero"})
    btype = read(bcfg, "type", "model.diffusion", str)
    if btype == "zero":
        known(bcfg, "model.diffusion", "type")
    elif btype in ("multiplicative_h", "multiplicative_v"):
        scale = sqrt_w if btype == "multiplicative_v" else None
        known(bcfg, "model.diffusion", "type", "c")
        noise.update(_multiplicative_noise(scale, c=read(bcfg, "c", "model.diffusion", float)))
    else:
        raise ConfigError("model.diffusion.type", f"unknown diffusion type {btype!r}")

    jcfg = read(cfg, "jump", "model", dict, {"type": "zero"})
    jtype = read(jcfg, "type", "model.jump", str)
    if jtype == "zero":
        known(jcfg, "model.jump", "type")
    elif jtype in ("multiplicative_mark", "multiplicative_v_mark"):
        scale = sqrt_w if jtype == "multiplicative_v_mark" else None
        known(jcfg, "model.jump", "type", "sigma")
        sigma = read(jcfg, "sigma", "model.jump", float)
        noise.update(_multiplicative_noise(scale, sigma=sigma, marks=marks))
    else:
        raise ConfigError("model.jump.type", f"unknown jump type {jtype!r}")

    x0 = _built("model.x0", triple.fits, read(cfg, "x0", "model", np.ndarray, None))
    bundle = CoefficientBundle(
        drift=drift,
        mark_space=marks,
        rho=_const_functional(read(cfg, "rho_const", "model", float, 0.0)),
        eta=_const_functional(read(cfg, "eta_const", "model", float, 0.0)),
        drift_jacobian=drift_jacobian,
        drift_implicit_solve=implicit_solve,
        **noise,
    )
    return _built(
        "model.regime",
        ModelSpec,
        id=name,
        triple=triple,
        bundle=bundle,
        constants=_built("model.constants", _constants_from_config,
                         read(cfg, "constants", "model", dict, {})),
        regime=read(cfg, "regime", "model", str, "part1"),
        default_x0=1.0 / np.arange(1, cap + 1) if x0 is None else x0,
        grid=grid,
    )


#: every scalar field of ``HypothesisConstants`` and its default; beta is 2 in a config
_SCALAR_CONSTANTS = {f.name: f.default for f in dataclasses.fields(HypothesisConstants)
                     if f.name != "h_p_integrals"} | {"beta": 2.0}


def _constants_from_config(ccfg: dict) -> HypothesisConstants:
    """``model.constants``: finite numbers, and ``h_p_integrals`` an object
    from moment orders (keys such as "2" or "4.0") to finite numbers."""
    known(ccfg, "model.constants", *_SCALAR_CONSTANTS, "h_p_integrals")
    where = "model.constants.h_p_integrals"
    h_p = read(ccfg, "h_p_integrals", "model.constants", dict, {})
    try:
        orders = [float(p) for p in h_p]
    except ValueError:
        raise ConfigError(where, "expected numeric moment orders as keys") from None
    h_p = {order: read(h_p, p, where, float) for order, p in zip(orders, h_p)}
    scalars = {key: read(ccfg, key, "model.constants", float, default)
               for key, default in _SCALAR_CONSTANTS.items()}
    return HypothesisConstants(**scalars, h_p_integrals=h_p)


def _built(field_name: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose range ``ValueError`` becomes a
    ``ConfigError`` on ``field_name``; a ``ConfigError`` passes unchanged."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(field_name, str(exc)) from None


def _const_functional(v: float):
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
