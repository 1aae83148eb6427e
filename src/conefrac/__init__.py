"""Numerical toolkit for fractional elliptic equations at conical boundary
points: vanishing orders, weighted spherical eigenpairs, trace-Hardy
constants and Almgren frequency traces."""

__version__ = "0.1.0"

from .cones import (ApproxDomain, ConeProfile, SmoothedCone, SphericalCap,
                    cap_of_cone, smoothing_profile)
from .errors import (ConefracError, ConfigurationError, DomainError,
                     ExpressionError, GeometryError, NumericalError)
from .params import (ProblemParams, gamma_from_mu, hardy_constant_full_space,
                     kappa_s, mu_from_gamma)

__all__ = [
    "__version__",
    "ProblemParams", "kappa_s", "gamma_from_mu", "mu_from_gamma",
    "hardy_constant_full_space",
    "ConeProfile", "SphericalCap", "SmoothedCone", "ApproxDomain",
    "cap_of_cone", "smoothing_profile",
    "ConefracError", "DomainError", "GeometryError", "ConfigurationError",
    "NumericalError", "ExpressionError",
]
