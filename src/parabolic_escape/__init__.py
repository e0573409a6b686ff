"""Escape rates of intermittent interval maps with holes at the origin.

The package builds the open induced (jump) system of a parabolic interval
map, extracts leading spectral data of the open transfer operators, converts
them into escape rates of the original map, and validates the shrinking-hole
asymptotics against closed-form, Ulam and Monte Carlo oracles.
"""

from .exceptions import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EscapeError,
    InsufficientRangeError,
    InsufficientSurvivorsError,
    MonotonicityError,
    NormalizationError,
    ReducibleMatrixError,
    ReturnTimeOverflowError,
)
from .maps import (
    ExplicitWeights,
    HarmonicWeights,
    Hole,
    MapSpec,
    PreimageSeq,
    ZipfWeights,
    default_pwl_weights,
    eval_derivative,
    eval_map,
    preimage_sequence,
    return_time,
    validate_hypotheses,
)
from .induced import InducedOpenSystem, build_induced
from .operators import (
    Grid,
    TransferMatrix,
    apply_open_induced,
    apply_Q0,
    apply_Q1,
    assemble_ulam_open,
    hole_grid,
    identity_residual,
    markov_grid,
    natural_partition_grid,
    pwl_exact_matrix,
)
from .spectral import (
    SpectralTriple,
    cylinder_masses,
    invariant_function,
    invariant_mass,
    leading_eigen,
    mean_return_time,
)
from .escape import (
    EscapeReport,
    compute_escape,
    escape_rate_induced,
    escape_rate_original,
    fit_scaling,
    induced_analysis,
    sandwich_bounds,
    sweep,
)
from .montecarlo import SurvivalCurve, mc_escape_rate, survival_curve

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EscapeError",
    "EscapeReport",
    "ExplicitWeights",
    "Grid",
    "HarmonicWeights",
    "Hole",
    "InducedOpenSystem",
    "InsufficientRangeError",
    "InsufficientSurvivorsError",
    "MapSpec",
    "MonotonicityError",
    "NormalizationError",
    "PreimageSeq",
    "ReducibleMatrixError",
    "ReturnTimeOverflowError",
    "SpectralTriple",
    "SurvivalCurve",
    "TransferMatrix",
    "ZipfWeights",
    "apply_Q0",
    "apply_Q1",
    "apply_open_induced",
    "assemble_ulam_open",
    "build_induced",
    "compute_escape",
    "cylinder_masses",
    "default_pwl_weights",
    "escape_rate_induced",
    "escape_rate_original",
    "eval_derivative",
    "eval_map",
    "fit_scaling",
    "hole_grid",
    "identity_residual",
    "induced_analysis",
    "invariant_function",
    "invariant_mass",
    "leading_eigen",
    "markov_grid",
    "mc_escape_rate",
    "mean_return_time",
    "natural_partition_grid",
    "preimage_sequence",
    "pwl_exact_matrix",
    "return_time",
    "sandwich_bounds",
    "survival_curve",
    "sweep",
    "validate_hypotheses",
]
