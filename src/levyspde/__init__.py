"""Simulation and verification toolkit for SPDE with locally monotone drift
driven by multiplicative Wiener noise and compensated Poisson jumps.

The package realizes the variational triple through a spectral basis, time
steps the projected finite-dimensional system with monotone-drift-aware
schemes, audits the hypothesis system numerically on sampled states, and
checks the energy, uniqueness, stability and level-convergence claims by
Monte Carlo at desk scale.
"""

from .coefficients import (
    CoefficientBundle,
    HypothesisConstants,
    HypothesisReport,
    admissible_p_range,
    audit_coercivity_growth,
    audit_hemicontinuity,
    audit_local_monotonicity,
    c1_of,
    c2_of,
    chi_exponent,
)
from .estimates import (
    EnergyStats,
    discrete_energy_residuals,
    energy_table,
    modulus_of_continuity,
)
from .models import ModelSpec, builtin, from_config, validate
from .noise import (
    JumpEvent,
    MarkSpace,
    NoiseRealization,
    compensated_integral,
    ito_isometry_check,
    sample_noise,
)
from .solver import (
    PathRecord,
    SolverConfig,
    StoppingTimeRule,
    apply_stopping,
    solve_path,
)
from .spaces import GalerkinState, GelfandTriple, triple_from_config
from .wellposedness import (
    continuous_dependence_study,
    galerkin_convergence,
    pathwise_uniqueness_test,
    weighted_stability_mc,
)

__version__ = "0.1.0"

__all__ = [
    "GelfandTriple",
    "GalerkinState",
    "triple_from_config",
    "CoefficientBundle",
    "HypothesisConstants",
    "HypothesisReport",
    "audit_hemicontinuity",
    "audit_local_monotonicity",
    "audit_coercivity_growth",
    "admissible_p_range",
    "chi_exponent",
    "c1_of",
    "c2_of",
    "MarkSpace",
    "JumpEvent",
    "NoiseRealization",
    "sample_noise",
    "compensated_integral",
    "ito_isometry_check",
    "SolverConfig",
    "StoppingTimeRule",
    "PathRecord",
    "solve_path",
    "apply_stopping",
    "EnergyStats",
    "energy_table",
    "discrete_energy_residuals",
    "modulus_of_continuity",
    "pathwise_uniqueness_test",
    "weighted_stability_mc",
    "continuous_dependence_study",
    "galerkin_convergence",
    "ModelSpec",
    "builtin",
    "from_config",
    "validate",
]
