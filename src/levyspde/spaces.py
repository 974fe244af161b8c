"""Spectral realization of the Gelfand triple V ⊂ H ⊂ V*.

The basis {e_j} is orthonormal in H, so an element of the Galerkin space H_m
is just its coefficient vector.  V is realized through a diagonal weight
sequence w_j ≥ 1 (nondecreasing, so the embedding constant is 1 and w_j → ∞
acts as the compactness surrogate):

    ‖u‖_H² = Σ u_j²,   ‖u‖_V² = Σ w_j u_j²,   ‖u‖_{V*}² = Σ u_j² / w_j.

The duality pairing is the coordinate pairing and coincides with the H inner
product, and the Galerkin projection P_m is coordinate truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GelfandTriple", "GalerkinState", "triple_from_config", "dot_rows", "sum_squares", "libm_pow"]


@dataclass(frozen=True)
class GalerkinState:
    """A point of H_m: ``level`` m, coefficient vector, and current time."""

    level: int
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if self.level <= 0:
            raise ValueError(f"level must be positive, got {self.level}")
        if coeffs.shape != (self.level,):
            raise ValueError(
                f"coeffs must have shape ({self.level},), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")


@dataclass(frozen=True)
class GelfandTriple:
    """Diagonal-weight triple on at most ``dimension_cap`` basis modes.

    Parameters
    ----------
    dimension_cap:
        Maximum number of realized modes; Galerkin levels are prefixes.
    v_weights:
        Per-mode weights w_j with w_j >= 1, nondecreasing.  ``w_j == 1`` for
        all j (H == V) is permitted and only meant for degenerate test setups.
    name:
        Identifier used in reports and artifact metadata.
    grid_size:
        Optional size of an attached 1-D physical grid.  Models whose V-norm
        is not the diagonal weighting (beta != 2) evaluate their norm
        functional by quadrature on that grid; the weights stay available for
        the linear part.
    """

    dimension_cap: int
    v_weights: np.ndarray
    name: str = "triple"
    grid_size: int | None = field(default=None)

    def __post_init__(self):
        w = np.asarray(self.v_weights, dtype=float)
        object.__setattr__(self, "v_weights", w)
        if self.dimension_cap <= 0:
            raise ValueError("dimension_cap must be positive")
        if w.shape != (self.dimension_cap,):
            raise ValueError(
                f"v_weights must have shape ({self.dimension_cap},), got {w.shape}"
            )
        if np.any(w < 1.0):
            raise ValueError("v_weights must satisfy w_j >= 1")
        if np.any(np.diff(w) < 0.0):
            raise ValueError("v_weights must be nondecreasing")
        w.setflags(write=False)

    def project(self, u, m: int) -> GalerkinState:
        """P_m u: truncate to the first m coordinates (padding with zeros)."""
        if m <= 0 or m > self.dimension_cap:
            raise ValueError(
                f"projection level must be in [1, {self.dimension_cap}], got {m}"
            )
        u = np.asarray(u, dtype=float)
        coeffs = np.zeros(m)
        k = min(m, u.shape[0])
        coeffs[:k] = u[:k]
        return GalerkinState(level=m, coeffs=coeffs)


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., m) arrays, each with ``np.dot``'s bits.

    The stacked (1, m) @ (m, 1) product runs ``np.dot``'s own kernel per row,
    so the result does not depend on the batch; ``einsum`` would not match.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def sum_squares(b: np.ndarray) -> np.ndarray:
    """Σ b_ij² of each (m, m) matrix of ``b`` (..., m, m), with ``np.sum(b * b)``'s bits."""
    bb = b * b
    return np.sum(bb.reshape(bb.shape[:-2] + (-1,)), axis=-1)


def libm_pow(x, e: float) -> np.ndarray:
    """x ** e per element through the C library's pow, as for a float.

    numpy's vectorized power can round the last bit differently, so scalar
    functionals and audit terms use this one for a single state and a batch
    alike.
    """
    x = np.asarray(x, dtype=float)
    return np.reshape([v**e for v in x.reshape(-1).tolist()], x.shape)


def triple_from_config(spec: dict) -> GelfandTriple:
    """Build a triple from a config record.

    Recognized weight rules: ``{"rule": "quadratic"}`` (w_j = j², floored at
    1), ``{"rule": "affine", "scale": c}`` (w_j = 1 + c·j²), or an explicit
    ``{"weights": [...]}`` table.
    """
    cap = int(spec["dimension_cap"])
    name = spec.get("name", "triple")
    grid_size = spec.get("grid_size")
    if "weights" in spec:
        w = np.asarray(spec["weights"], dtype=float)
    else:
        rule = spec.get("rule", "quadratic")
        j = np.arange(1, cap + 1, dtype=float)
        if rule == "quadratic":
            w = np.maximum(j**2, 1.0)
        elif rule == "affine":
            w = 1.0 + float(spec.get("scale", 1.0)) * j**2
        else:
            raise ValueError(f"unknown weight rule: {rule!r}")
    return GelfandTriple(
        dimension_cap=cap,
        v_weights=w,
        name=name,
        grid_size=int(grid_size) if grid_size is not None else None,
    )
