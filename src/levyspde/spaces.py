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

import math
from dataclasses import dataclass

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
    """

    dimension_cap: int
    v_weights: np.ndarray
    name: str = "triple"

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

    def fits(self, u: np.ndarray | None) -> np.ndarray | None:
        """``u`` itself (None too), if it has at most ``dimension_cap`` entries;
        a longer state has modes that no level solves, so it is a ValueError."""
        if u is not None and u.size > self.dimension_cap:
            raise ValueError(f"expected at most {self.dimension_cap} entries (dimension_cap), got {u.size}")
        return u


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
    alike.  Where C pow overflows to ±inf, a float's ``**`` raises
    OverflowError; those elements are ±inf here, as in C.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1).tolist()
    try:
        values = [v**e for v in flat]
    except OverflowError:
        values = [_pow_or_inf(v, e) for v in flat]
    return np.reshape(values, x.shape)


def _pow_or_inf(v: float, e: float) -> float:
    try:
        return v**e
    except OverflowError:
        # a negative base keeps its sign under an odd integer exponent
        return math.copysign(math.inf, v) if e % 2.0 == 1.0 else math.inf


class ConfigError(ValueError):
    """A config value of the wrong kind or range; ``field_name`` is its dotted name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name

    def __reduce__(self):
        return type(self), (self.field_name, self.args[0].removeprefix(f"config field {self.field_name!r}: "))


#: what each kind of ``read`` expects, as its errors say it
_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
             dict: "an object", list: "a nonempty list of finite numbers",
             np.ndarray: "a nonempty list of finite numbers"}
_MISSING = object()


def read(record: dict, name: str, where: str, kind, default=_MISSING):
    """``record[name]`` read as ``kind``, or ``default`` when it is absent or null.

    The kinds are ``int``, ``float`` (finite; an int is read as a float),
    ``bool``, ``str``, ``dict`` (a JSON object), ``list`` (a nonempty list of
    finite numbers, read as floats) and ``np.ndarray`` (the same list as a
    float vector).  A bool is not a number, and a fraction or a string is not
    an int.  Errors name the dotted field ``where.name``.
    """
    field_name = f"{where}.{name}" if where else name
    value = record.get(name)
    if value is None:
        if default is _MISSING:
            raise ConfigError(field_name, "missing")
        return default
    if kind is float:
        if (number := _finite(value)) is not None:
            return number
    elif kind in (list, np.ndarray):
        numbers = [_finite(v) for v in value] if isinstance(value, list) and value else [None]
        if None not in numbers:
            return numbers if kind is list else np.array(numbers)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(field_name, f"expected {_EXPECTED[kind]}, got {value!r:.40}")


def known(record: dict, where: str, *names: str) -> dict:
    """``record`` itself, if each of its keys is one of ``names``, the keys
    its reader reads; any other key is a ConfigError naming ``where.<key>``."""
    for key in record:
        if key not in names:
            raise ConfigError(f"{where}.{key}" if where else key,
                              f"unknown key; this record reads {', '.join(names)}")
    return record


def _finite(value) -> float | None:
    """A JSON number as a finite float, else None: a bool or text is not a
    number, and 1e400 (inf) or an integer beyond the float range not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def triple_from_config(spec: dict) -> GelfandTriple:
    """Build a triple from a config record, a custom model's ``triple``.

    Recognized weight rules: ``{"rule": "quadratic"}`` (w_j = j², floored at
    1), ``{"rule": "affine", "scale": c}`` (w_j = 1 + c·j²), or an explicit
    ``{"weights": [...]}`` table.  Errors name fields under ``model.triple``.
    """
    where = "model.triple"
    cap = read(spec, "dimension_cap", where, int)
    name = read(spec, "name", where, str, "triple")
    w = read(spec, "weights", where, np.ndarray, None)
    if w is None:
        rule = read(spec, "rule", where, str, "quadratic")
        j = np.arange(1, cap + 1, dtype=float)
        if rule == "quadratic":
            w = np.maximum(j**2, 1.0)
        elif rule == "affine":
            w = 1.0 + read(spec, "scale", where, float, 1.0) * j**2
        else:
            raise ConfigError(f"{where}.rule", f"unknown weight rule {rule!r}")
    return GelfandTriple(dimension_cap=cap, v_weights=w, name=name)
