"""Discrete Gaussian distributions on Z^g via the Riemann theta function.

Certified theta evaluation, distribution statistics (moments, cumulants,
entropy, marginals, group actions), maximum-entropy/MLE moment fitting,
exact sampling, and the projective moment-map geometry checks.
"""

from .engine import (
    SiegelMatrix,
    ThetaPoint,
    TruncationBudget,
    lattice_points,
    theta,
    theta_dB,
    theta_du,
    theta_du_many,
    theta_du_stack,
    truncation_radius,
)
from .distribution import DiscreteGaussian, SplitSpec, moments_to_cumulants
from .fitting import CanonicalPoint, FitReport, MomentData, fit, fit_from_sample, forward_moments
from .geometry import (
    CubicCoefficients,
    CubicResiduals,
    FormFit,
    ProbeReport,
    ProjectivePoint,
    cubic_coefficients,
    find_theta_zero,
    fit_vanishing_form,
    gauss_map,
    identifiability_probe,
    kummer_quartic_fit,
    log_derivatives,
    statistical_map,
    statistical_map_stack,
    verify_cubic,
)
from .multiindex import moment_map_indices
from .sampler import SamplerConfig, chi_square, draw, support_radius
from . import errors

__version__ = "1.0.0"

__all__ = [
    "SiegelMatrix",
    "ThetaPoint",
    "TruncationBudget",
    "DiscreteGaussian",
    "SplitSpec",
    "MomentData",
    "CanonicalPoint",
    "FitReport",
    "SamplerConfig",
    "ProjectivePoint",
    "CubicCoefficients",
    "CubicResiduals",
    "FormFit",
    "ProbeReport",
    "errors",
    "theta",
    "theta_du",
    "theta_du_many",
    "theta_du_stack",
    "theta_dB",
    "truncation_radius",
    "lattice_points",
    "moments_to_cumulants",
    "forward_moments",
    "fit",
    "fit_from_sample",
    "support_radius",
    "draw",
    "chi_square",
    "statistical_map",
    "statistical_map_stack",
    "cubic_coefficients",
    "verify_cubic",
    "find_theta_zero",
    "gauss_map",
    "kummer_quartic_fit",
    "fit_vanishing_form",
    "identifiability_probe",
    "log_derivatives",
    "moment_map_indices",
]
