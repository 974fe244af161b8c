"""Experiment configuration: versioned JSON records with explicit validation.

Errors raise ``ConfigError`` naming the offending field; the CLI maps these
to exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import ModelSpec, resolve
from .solver import SolverConfig
from .spaces import finite_vector

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "checked_seed"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass
class ExperimentConfig:
    model: ModelSpec
    solver: SolverConfig
    master_seed: int
    output_dir: Path
    study: dict = field(default_factory=dict)
    x0: np.ndarray | None = None

    def initial_state(self) -> np.ndarray:
        return self.x0 if self.x0 is not None else self.model.default_x0


def checked_seed(value, field_name: str) -> int:
    """A master seed: an integer in [0, 2**64), the range the RNG streams use.

    Larger or negative values would be folded into that range and silently
    alias another seed's run.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(field_name, "expected an integer in [0, 2**64)")
    return value


def checked_vector(value, field_name: str) -> np.ndarray:
    """``spaces.finite_vector``, or a ConfigError naming the field."""
    arr = finite_vector(value)
    if arr is None:
        raise ConfigError(field_name, "expected a nonempty finite 1-D list of numbers")
    return arr


_MISSING = object()


def _require(cfg: dict, name: str, kind, where: str, default=_MISSING):
    """``cfg[name]`` checked against ``kind``, or ``default`` when it is absent.

    A bool is neither a float nor an int here, and an int is read as a float
    where a float is asked for.
    """
    field_name = f"{where}.{name}" if where else name
    if name not in cfg:
        if default is _MISSING:
            raise ConfigError(field_name, "missing")
        return default
    value = cfg[name]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(field_name, f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    model_ref = raw.get("model")
    if not isinstance(model_ref, (str, dict)):
        raise ConfigError("model", "expected a builtin id or a custom model record")
    try:
        model = resolve(model_ref)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("model", str(exc))

    scfg = _require(raw, "solver", dict, "")
    fields = {
        "dt": _require(scfg, "dt", float, "solver"),
        "T": _require(scfg, "T", float, "solver"),
        "level": _require(scfg, "level", int, "solver"),
        "newton_tol": _require(scfg, "newton_tol", float, "solver", 1e-10),
        "newton_max_iter": _require(scfg, "newton_max_iter", int, "solver", 50),
    }
    if fields["newton_max_iter"] < 1:
        raise ConfigError("solver.newton_max_iter", "the Newton solve needs at least one iteration")
    try:
        solver = SolverConfig(scheme=scfg.get("scheme", "drift_implicit"), **fields)
    except ValueError as exc:
        raise ConfigError("solver", str(exc))
    if solver.level > model.triple.dimension_cap:
        raise ConfigError(
            "solver.level",
            f"exceeds the model's dimension_cap {model.triple.dimension_cap}",
        )

    seed = checked_seed(raw.get("master_seed", 0), "master_seed")

    study = raw.get("study", {})
    if not isinstance(study, dict):
        raise ConfigError("study", "expected an object")

    x0 = checked_vector(raw["x0"], "x0") if "x0" in raw else None

    out_dir = Path(raw.get("output_dir", "out"))
    return ExperimentConfig(
        model=model,
        solver=solver,
        master_seed=seed,
        output_dir=out_dir,
        study=study,
        x0=x0,
    )
