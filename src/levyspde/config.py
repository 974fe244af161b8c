"""Experiment configuration: versioned JSON records with explicit validation.

Every value is read through ``spaces.read``, one type rule for the solver,
study and model fields alike.  Errors raise ``ConfigError``, a
``ValueError`` that names the dotted field (``solver.T``,
``model.triple.dimension_cap``); the CLI maps these to exit code 1.  A
record takes only the keys it reads, and a state at most ``dimension_cap``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import ModelSpec, _built, resolve
from .solver import SolverConfig, SolverFieldError
from .spaces import ConfigError, known, read

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "checked_seed"]

SCHEMA_VERSION = 1


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


def checked_seed(value: int, field_name: str) -> int:
    """A master seed in [0, 2**64), the range the RNG streams use.

    Larger or negative values would be folded into that range and silently
    alias another seed's run.
    """
    if not 0 <= value < 2**64:
        raise ConfigError(field_name, "expected an integer in [0, 2**64)")
    return value


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # invalid JSON, or text that is not UTF-8
        raise ConfigError("config", f"invalid JSON: {exc}")
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config", "expected a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    known(raw, "", "schema_version", "model", "solver", "master_seed", "output_dir", "study", "x0")

    model_ref = raw.get("model")
    if not isinstance(model_ref, (str, dict)):
        raise ConfigError("model", "expected a builtin id or a custom model record")
    model = _built("model", resolve, model_ref)

    scfg = read(raw, "solver", "", dict)
    fields = {
        "dt": read(scfg, "dt", "solver", float),
        "T": read(scfg, "T", "solver", float),
        "level": read(scfg, "level", "solver", int),
        "scheme": read(scfg, "scheme", "solver", str, SolverConfig.scheme),
        "newton_tol": read(scfg, "newton_tol", "solver", float, SolverConfig.newton_tol),
        "newton_max_iter": read(scfg, "newton_max_iter", "solver", int, SolverConfig.newton_max_iter),
    }
    known(scfg, "solver", *fields)
    try:
        solver = SolverConfig(**fields)
    except SolverFieldError as exc:
        raise ConfigError(f"solver.{exc.field}", str(exc)) from None
    if solver.level > model.triple.dimension_cap:
        raise ConfigError(
            "solver.level",
            f"exceeds the model's dimension_cap {model.triple.dimension_cap}",
        )
    return ExperimentConfig(
        model=model,
        solver=solver,
        master_seed=checked_seed(read(raw, "master_seed", "", int, 0), "master_seed"),
        output_dir=Path(read(raw, "output_dir", "", str, "out")),
        study=read(raw, "study", "", dict, {}),
        x0=_built("x0", model.triple.fits, read(raw, "x0", "", np.ndarray, None)),
    )
