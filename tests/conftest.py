"""Shared fixtures: small linear models and the planted-failure bundles."""

import dataclasses

import numpy as np
import pytest

from levyspde.coefficients import CoefficientBundle, HypothesisConstants
from levyspde.models import builtin
from levyspde.noise import MarkSpace
from levyspde.spaces import GelfandTriple


def make_scalar_linear(mu=2.0, sigma=0.05, additive=False):
    """One-mode linear model: drift -mu x, Wiener coefficient sigma.

    ``additive=True`` makes the diffusion constant (sigma), otherwise it is
    multiplicative (sigma x).  No jumps.
    """
    triple = GelfandTriple(dimension_cap=1, v_weights=np.array([max(mu, 1.0)]))

    def drift(t, u):
        return -mu * u

    def diffusion(t, u):
        if additive:
            return np.full(u.shape + (1,), sigma)
        return sigma * u[..., None]

    def implicit_solve(t_next, x, dt):
        return x / (1.0 + dt * mu)

    bundle = CoefficientBundle(
        drift=drift,
        diffusion=diffusion,
        jump=lambda t, u, z: np.zeros(u.shape),
        mark_space=MarkSpace.zero(),
        rho=lambda u: np.zeros(u.shape[:-1]),
        eta=lambda u: np.zeros(u.shape[:-1]),
        local_bound=lambda t, r: 0.0,
        drift_jacobian=lambda t, u: np.full(u.shape + (1,), -mu),
        drift_implicit_solve=implicit_solve,
    )
    constants = HypothesisConstants(beta=2.0, g_integral=sigma**2, L_A=mu / max(mu, 1.0))
    return triple, bundle, constants


def make_pure_jump(gamma_vec, marks=None, level=2):
    """Constant-jump model: no drift, no Wiener, gamma(t, u, z) = gamma_vec."""
    marks = marks or MarkSpace(marks=np.array([1.0]), weights=np.array([1.5]))
    triple = GelfandTriple(dimension_cap=level, v_weights=np.ones(level))
    g = np.asarray(gamma_vec, dtype=float)

    bundle = CoefficientBundle(
        drift=lambda t, u: np.zeros(u.shape),
        diffusion=lambda t, u: np.zeros(u.shape + u.shape[-1:]),
        jump=lambda t, u, z: np.broadcast_to(g[: u.shape[-1]], u.shape),
        mark_space=marks,
        rho=lambda u: np.zeros(u.shape[:-1]),
        eta=lambda u: np.zeros(u.shape[:-1]),
    )
    constants = HypothesisConstants(
        beta=2.0,
        h_p_integrals={2.0: marks.total_intensity * float(np.dot(g, g))},
    )
    return triple, bundle, constants


def make_time_dependent(level=3, sigma=0.3, sigma_jump=0.2, marks=None):
    """A linear model that reads its time: drift -(1 + t) u, diffusion
    sigma (1 + t) diag(u), jump (1 + t) sigma_jump z u, with every closed form.

    Each callable takes ``t`` as a float or as one time per row, (..., 1).
    """
    marks = marks or MarkSpace(marks=np.array([1.0, -0.5]), weights=np.array([2.0, 1.0]))
    triple = GelfandTriple(dimension_cap=level, v_weights=np.ones(level))
    mark_mean = float(np.sum(marks.weights * marks.marks))

    def scale(t):
        return 1.0 + np.asarray(t, dtype=float)

    def diag(v):
        return v[..., :, None] * np.eye(v.shape[-1])

    bundle = CoefficientBundle(
        drift=lambda t, u: -scale(t) * u,
        diffusion=lambda t, u: diag(sigma * scale(t) * u),
        jump=lambda t, u, z: scale(t) * sigma_jump * z * u,
        mark_space=marks,
        drift_jacobian=lambda t, u: diag(-scale(t) * np.ones(u.shape)),
        drift_implicit_solve=lambda t, x, dt: x / (1.0 + dt * scale(t)),
        diffusion_matvec=lambda t, u, dw: sigma * scale(t) * u * dw,
        jump_weighted_sum=lambda t, u: scale(t) * sigma_jump * mark_mean * u,
    )
    return triple, bundle


@pytest.fixture(scope="session")
def heat_spec():
    return builtin("heat")


@pytest.fixture(scope="session")
def quiet_heat_spec():
    # noise off: the contractive deterministic baseline
    return builtin("heat", c_wiener=0.0, sigma_jump=0.0, marks=MarkSpace.zero())


@pytest.fixture(scope="session")
def allen_cahn_spec():
    return builtin("allen_cahn")


def step_discontinuous_bundle(heat):
    """Heat drift with a planted jump when the first coordinate crosses 0."""
    w = heat.triple.v_weights

    def drift(t, u):
        base = -w[: u.shape[-1]] * u
        base[..., 0] += np.where(u[..., 0] >= 0.0, 0.7, 0.0)
        return base

    return dataclasses.replace(
        heat.bundle, drift=drift, drift_jacobian=None, drift_implicit_solve=None
    )


def misdeclared_beta_constants(heat):
    """Heat constants claiming the wrong coercivity exponent."""
    return dataclasses.replace(heat.constants, beta=3.0)
