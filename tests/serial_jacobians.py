"""Reference copies of the grid models' drift Jacobians in broadcast form.

These are the Jacobians as they were before ``SpectralGrid.contract``
formed each one as its linear part plus one contraction of pointwise grid
weights with a cached (n, m, m) table.  Each applies the derivative of its
pointwise map to the basis columns on the grid and projects back with
``h phiᵀ``, through an (..., n, m) temporary.  ``test_models`` runs them
next to the contractions and requires agreement to rounding, so a table
built with a wrong sign or index shows up there.
"""

from __future__ import annotations

import numpy as np


def allen_cahn(grid, u):
    """J = diag(1 - mu) - 3h phiᵀ diag(v²) phi."""
    m = u.shape[-1]
    vals = grid.to_grid(u)
    phi = grid.phi[:, :m]
    return np.diag(1.0 - grid.mu)[:m, :m] - 3.0 * grid.h * (phi.T * (vals**2)[..., None, :]) @ phi


def burgers1d(grid, u, nu):
    """J = -nu diag(mu) - d/du of the skew convection's coefficients."""
    m = u.shape[-1]
    vals = grid.to_grid(u)
    col = vals[..., :, None]
    phi = grid.phi[:, :m]
    # d/du of the skew form applied to phi columns
    jac_grid = (col * grid.dphi[:, :m] + grid.d_centered(vals)[..., :, None] * phi) / 3.0
    jac_grid += 2.0 * grid.d_centered(col * phi, axis=-2) / 3.0
    return -nu * np.diag(grid.mu)[:m, :m] - grid.h * phi.T @ jac_grid


def p_laplacian(grid, u, p):
    """J = h phiᵀ [div_back((p-1)|∇v|^(p-2) ∇phi) - (p-1)|v|^(p-2) phi]."""
    m = u.shape[-1]
    vals = grid.to_grid(u)
    g = grid.grad(vals)
    phi = grid.phi[:, :m]
    flux_slope = (p - 1.0) * np.abs(g) ** (p - 2.0)
    div_part = grid.div_back(flux_slope[..., :, None] * grid.gphi[:, :m], axis=-2)
    react_slope = (p - 1.0) * np.abs(vals) ** (p - 2.0)
    return grid.h * phi.T @ (div_part - react_slope[..., :, None] * phi)


def reaction(grid, spectrum, coeffs, u):
    """J = -diag(spectrum) + h phiᵀ diag(poly'(v)) phi for the pointwise
    polynomial with coefficients ``coeffs`` (lowest power first)."""
    m = u.shape[-1]
    dpoly = np.polyder(np.poly1d(np.asarray(coeffs, dtype=float)[::-1]))
    phi = grid.phi[:, :m]
    return -np.diag(spectrum)[:m, :m] + grid.h * (phi.T * dpoly(grid.to_grid(u))[..., None, :]) @ phi
