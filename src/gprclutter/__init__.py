"""Clutter covariance propagation for single-snapshot FDA-MIMO GPR.

Implements the chain from weak Cole-Cole parameter fluctuations through
electromagnetic contrast and first-order Born channel snapshots to the
clutter covariance and its spectral/subspace diagnostics, plus the Monte
Carlo machinery that validates each link at desk scale.
"""

from .constants import EPSILON_0, MU_0
from .constitutive import (
    ColeColeParams,
    eval_permittivity,
    eval_sensitivities,
    finite_difference_check,
)
from .forward import (
    ForwardMatrix,
    SteeringVector,
    assemble_forward,
    forward_discrepancy,
    steering_vector,
)
from .montecarlo import (
    ClosureReport,
    ValidityReport,
    validity_scan,
)
from .randfield import (
    PerturbationCovariance,
    SpatialCorrelation,
    build_covariance,
    build_param_factor,
    build_spatial_factor,
    sample_perturbations,
    spatial_correlation,
)
from .scene import (
    GeometryConfig,
    Scenario,
    SceneGeometry,
    build_default_geometry,
    get_scenario,
    scenario_registry,
)
from .spectra import (
    ClutterCovariance,
    SpectralSummary,
    add_noise_floor,
    clutter_covariance,
    scale_covariance,
    spectral_summary,
    target_overlap,
)

__version__ = "0.1.0"

__all__ = [
    "EPSILON_0",
    "MU_0",
    "ColeColeParams",
    "eval_permittivity",
    "eval_sensitivities",
    "finite_difference_check",
    "ForwardMatrix",
    "SteeringVector",
    "assemble_forward",
    "forward_discrepancy",
    "steering_vector",
    "ClosureReport",
    "ValidityReport",
    "validity_scan",
    "PerturbationCovariance",
    "SpatialCorrelation",
    "build_covariance",
    "build_param_factor",
    "build_spatial_factor",
    "sample_perturbations",
    "spatial_correlation",
    "GeometryConfig",
    "Scenario",
    "SceneGeometry",
    "build_default_geometry",
    "get_scenario",
    "scenario_registry",
    "ClutterCovariance",
    "SpectralSummary",
    "add_noise_floor",
    "clutter_covariance",
    "scale_covariance",
    "spectral_summary",
    "target_overlap",
    "__version__",
]
