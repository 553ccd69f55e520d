"""Guaranteed functional error identities and two-sided bounds for four
model problems (reaction-diffusion, Poisson, and their time-dependent
counterparts) on box domains, verified with manufactured solutions and
tensor Gauss-Legendre quadrature.
"""
from .config import (ConfigError, ApproxSpec, CaseSpec, EstimatorSpec,
                     RunConfig, default_suite_config, parse_config)
from .elliptic import (FriedrichsConstant, cftwo_check, friedrichs_constant,
                       friedrichs_margin, poisson_nonconforming,
                       poisson_two_sided, poisson_very_conforming_equality,
                       rd_equality, rd_nonconforming_bounds,
                       rd_semiconforming_bounds, rd_very_conforming_equality,
                       two_sided_prefactors)
from .fields import (BoxDomain, CapabilityError, ConformityError, ScalarField,
                     VectorField, constant_scalar, zero_scalar, zero_vector)
from .manufactured import (KINDS, LEVELS, PARABOLIC_KINDS, ApproxPair,
                           ProblemCase, flux_basis, free_fields, make_case,
                           perturb)
from .optimize import (combine_vector_fields, improve_bound,
                       minimize_flux_majorant, optimal_gamma)
from .parabolic import (heat_isometry_check, heat_two_sided,
                        heat_very_conforming_equality, trd_equality,
                        trd_isometry_check, trd_very_conforming_equality)
from .quadrature import (QuadratureRule, l2_gram, l2_inner, norm_sq,
                         space_nodes, spacetime_nodes, trace_norm_sq)
from .reports import BoundReport, EqualityReport, relative_residual
from .runner import RunReport, emit, read_report, run
from .symbolic import gradient_field, scalar_field, vector_field

__version__ = "0.1.0"

__all__ = [
    "ApproxPair", "ApproxSpec", "BoundReport", "BoxDomain", "CapabilityError",
    "CaseSpec", "ConfigError", "ConformityError", "EqualityReport",
    "EstimatorSpec", "FriedrichsConstant", "KINDS", "LEVELS",
    "PARABOLIC_KINDS", "ProblemCase", "QuadratureRule", "RunConfig",
    "RunReport", "ScalarField", "VectorField",
    "cftwo_check", "combine_vector_fields", "constant_scalar",
    "default_suite_config", "emit", "flux_basis", "free_fields",
    "friedrichs_constant", "friedrichs_margin", "gradient_field",
    "heat_isometry_check", "heat_two_sided", "heat_very_conforming_equality",
    "improve_bound", "l2_gram", "l2_inner", "make_case",
    "minimize_flux_majorant", "norm_sq", "optimal_gamma", "parse_config",
    "perturb", "poisson_nonconforming",
    "poisson_two_sided", "poisson_very_conforming_equality", "rd_equality",
    "rd_nonconforming_bounds", "rd_semiconforming_bounds",
    "rd_very_conforming_equality", "read_report", "relative_residual", "run",
    "scalar_field", "space_nodes", "spacetime_nodes", "trace_norm_sq",
    "trd_equality", "trd_isometry_check", "trd_very_conforming_equality",
    "two_sided_prefactors", "vector_field", "zero_scalar", "zero_vector",
]
