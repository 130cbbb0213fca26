"""Closed-form moment propagation for quadratic time-dependent oscillators.

The package splits into model description (``model``, ``timefunc``), the
static diagonalization layer (``staticdiag``), the dynamic pipeline built on
an auxiliary-equation reduction (``pipeline``), closed-form benchmark
scenarios (``scenarios``), and a truncated number-basis cross-check
(``oracle``). ``integrators`` only keeps two names that the benchmark's
tracer patches.
"""

from .errors import (ConfigError, DomainError, IntegrationError,
                     SingularityError, TdqhoError, ValidityError)
from .model import (MomentState, MomentTrajectory, PropagatorCoefficients,
                    QuadraticParams, ValidityReport, coherent_moments,
                    effective_m5_omega5, gamma_squeeze, ground_moments, kappa,
                    kappa_dot, propagate_moments, validate)
from .pipeline import (BetaSolution, ErmakovSolution, PipelineSolution,
                       beta_ode_residual, coefficients, ermakov_residual,
                       gaussian_density, solve, solve_beta, solve_ermakov)
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
    "BetaSolution", "CKSpec", "ConfigError", "Constant", "Cosine",
    "DomainError", "DrivenSpec", "ErmakovSolution", "Exponential",
    "IntegrationError", "MomentState", "MomentTrajectory",
    "PipelineSolution", "Polynomial", "PropagatorCoefficients",
    "QuadraticParams", "SingularityError", "StaticDiagResult",
    "StaticParams", "Tabulated", "TdqhoError", "TimeFunction",
    "ValidityError", "ValidityReport",
    "beta_ode_residual", "ck_coefficients", "ck_ground_variances",
    "ck_moments", "ck_uncertainty", "coefficients", "coherent_moments",
    "diag_branch_theta_p_zero", "diag_branch_theta_x_zero", "driven_beta",
    "driven_coefficients", "driven_moments_exact", "driven_moments_rwa",
    "effective_m5_omega5", "effective_mass_frequency", "ermakov_residual",
    "gamma_squeeze", "gaussian_density", "ground_moments",
    "kappa", "kappa_dot", "propagate_moments", "solve", "solve_beta",
    "solve_ermakov", "static_translation", "validate",
]
