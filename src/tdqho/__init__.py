"""Closed-form moment propagation for quadratic time-dependent oscillators.

The package splits into model description with the one
``EffectiveOscillator`` record of kappa, m5 and w5^2 and the one
``MomentState`` record of moments, at a time or over a grid (``model``,
``timefunc``), the static diagonalization layer (``staticdiag``), the
dynamic pipeline built on an auxiliary-equation reduction, one
``PipelineSolution`` class per solve (``pipeline``), closed-form scenarios
(``scenarios``), and a truncated number-basis cross-check (``oracle``).
The two names in ``integrators`` and ``pipeline.solve_beta`` stay only
because the benchmark's tracer patches them.
"""

from .errors import (ConfigError, DomainError, IntegrationError,
                     SingularityError, TdqhoError, ValidityError)
from .model import (EffectiveOscillator, MomentState, PropagatorCoefficients,
                    QuadraticParams, ValidityReport, coherent_moments,
                    ground_moments, propagate_moments, validate)
from .pipeline import (PipelineSolution, beta_ode_residual, coefficients,
                       ermakov_residual, gaussian_density, solve, solve_beta,
                       solve_ermakov)
from .scenarios import (CKSpec, DrivenSpec, ck_coefficients, ck_ground_variances,
                        ck_moments, ck_uncertainty, driven_beta,
                        driven_coefficients, driven_moments_exact,
                        driven_moments_rwa)
from .staticdiag import (StaticDiagResult, StaticParams,
                         diag_branch_theta_p_zero, diag_branch_theta_x_zero,
                         effective_mass_frequency, static_translation)
from .timefunc import (Constant, Cosine, Exponential, Polynomial, Tabulated,
                       TimeFunction)

__version__ = "0.1.0"

__all__ = [
    "CKSpec", "ConfigError", "Constant", "Cosine", "DomainError",
    "DrivenSpec", "EffectiveOscillator", "Exponential",
    "IntegrationError", "MomentState", "PipelineSolution", "Polynomial",
    "PropagatorCoefficients", "QuadraticParams", "SingularityError",
    "StaticDiagResult", "StaticParams", "Tabulated", "TdqhoError",
    "TimeFunction", "ValidityError", "ValidityReport",
    "beta_ode_residual", "ck_coefficients", "ck_ground_variances",
    "ck_moments", "ck_uncertainty", "coefficients", "coherent_moments",
    "diag_branch_theta_p_zero", "diag_branch_theta_x_zero", "driven_beta",
    "driven_coefficients", "driven_moments_exact", "driven_moments_rwa",
    "effective_mass_frequency", "ermakov_residual",
    "gaussian_density", "ground_moments", "propagate_moments", "solve",
    "solve_beta", "solve_ermakov", "static_translation", "validate",
]
