"""Closed-form diagonalization of the time-independent quadratic oscillator.

A translation removes the linear drives, a phase absorbs the accumulated
constant, and a quadratic rotation removes the {x, p} cross term, leaving a
plain oscillator with effective mass M and frequency Omega. Two rotation
parameter choices admit closed forms; generic parameters must satisfy a
transcendental constraint and are evaluated directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import DomainError, SingularityError, ValidityError
from .timefunc import REQUIRED, parse_fields, parse_number

TRANSCENDENTAL_TOL = 1e-10


@dataclass(frozen=True)
class StaticParams:
    """Constant coefficients of the quadratic Hamiltonian."""

    m: float
    omega: float
    alpha_x: float = 0.0
    alpha_p: float = 0.0
    alpha_xp: float = 0.0
    alpha_0: float = 0.0
    hbar: float = 1.0

    schema = (("m", parse_number, REQUIRED), ("omega", parse_number, REQUIRED),
              *((key, parse_number, 0.0) for key in ("alpha_x", "alpha_p", "alpha_xp", "alpha_0")),
              ("hbar", parse_number, 1.0))

    def __post_init__(self):
        if not (self.m > 0.0):
            raise DomainError(f"m must be positive, got {self.m}")
        if not (self.omega > 0.0):
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not (self.hbar > 0.0):
            raise DomainError(f"hbar must be positive, got {self.hbar}")

    @property
    def discriminant(self):
        """omega^2 - 4 alpha_xp^2; positive in the admissible regime."""
        return self.omega ** 2 - 4.0 * self.alpha_xp ** 2

    @staticmethod
    def from_dict(obj):
        return StaticParams(*parse_fields(obj, StaticParams.schema))


@dataclass(frozen=True)
class StaticDiagResult:
    """Everything the diagonalization produces: the translation, the phase
    accumulation rate l, the rotation parameters, and the effective mode."""

    beta_x: float
    beta_p: float
    l: float
    theta_x_sq: float
    theta_p_sq: float
    M: float
    Omega_sq: float

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def static_translation(params):
    """Displacement (beta_x, beta_p) that cancels both linear terms.

    Raises SingularityError on the free-particle ridge omega^2 = 4 alpha_xp^2.
    """
    disc = params.discriminant
    if disc == 0.0:
        raise SingularityError(
            f"omega^2 = 4 alpha_xp^2 (omega={params.omega}, alpha_xp={params.alpha_xp}); "
            "translation parameters diverge")
    beta_x = (2.0 * params.m * params.alpha_p * params.alpha_xp - params.alpha_x) \
        / (params.m * disc)
    beta_p = params.m * params.alpha_p \
        - 2.0 * params.alpha_xp * (params.alpha_x
                                   - 2.0 * params.m * params.alpha_p * params.alpha_xp) / disc
    return beta_x, beta_p


def translation_residuals(params, beta_x, beta_p):
    """Leftover linear coefficients after translating by (beta_x, beta_p).

    Both vanish exactly when the displacement comes from static_translation.
    """
    r_x = params.m * params.omega ** 2 * beta_x + params.alpha_x \
        - 2.0 * params.alpha_xp * beta_p
    r_p = beta_p / params.m - params.alpha_p - 2.0 * params.alpha_xp * beta_x
    return r_x, r_p


def _energy_offset(m, omega, alpha_x, alpha_p, alpha_xp, beta_x, beta_p):
    """Energy offset ell left by the translation (beta_x, beta_p), for
    scalars or arrays alike."""
    return beta_p ** 2 / (2.0 * m) + 0.5 * m * omega ** 2 * beta_x ** 2 \
        + alpha_x * beta_x - alpha_p * beta_p - 2.0 * alpha_xp * beta_x * beta_p


def accumulation_constant(params, beta_x, beta_p):
    """Constant energy offset l produced by the translation."""
    return _energy_offset(params.m, params.omega, params.alpha_x, params.alpha_p,
                          params.alpha_xp, beta_x, beta_p)


def _require_admissible(params):
    if params.discriminant <= 0.0:
        raise ValidityError(
            f"omega^2 - 4 alpha_xp^2 = {params.discriminant:.6e} must be positive",
            constraint="omega^2 > 4 alpha_xp^2")


def diag_branch_theta_p_zero(params):
    """Rotation generated by x^2 alone: theta_x^2 = m alpha_xp.

    Keeps the bare mass, M = m, with Omega^2 = omega^2 - 4 alpha_xp^2.
    """
    _require_admissible(params)
    beta_x, beta_p = static_translation(params)
    return StaticDiagResult(
        beta_x=beta_x, beta_p=beta_p,
        l=accumulation_constant(params, beta_x, beta_p),
        theta_x_sq=params.m * params.alpha_xp, theta_p_sq=0.0,
        M=params.m, Omega_sq=params.discriminant)


def diag_branch_theta_x_zero(params):
    """Rotation generated by p^2 alone: theta_p^2 = -alpha_xp/(m omega^2).

    Rescales the mass, M = m omega^2 / (omega^2 - 4 alpha_xp^2); the
    frequency matches the other branch.
    """
    _require_admissible(params)
    beta_x, beta_p = static_translation(params)
    return StaticDiagResult(
        beta_x=beta_x, beta_p=beta_p,
        l=accumulation_constant(params, beta_x, beta_p),
        theta_x_sq=0.0,
        theta_p_sq=-params.alpha_xp / (params.m * params.omega ** 2),
        M=params.m * params.omega ** 2 / params.discriminant,
        Omega_sq=params.discriminant)


def transcendental_residual(params, theta_x, theta_p):
    """Scaled residual of tan(4 t_x t_p) (t_x^2 - m^2 w^2 t_p^2) = 4 t_x t_p m a_xp."""
    angle = 4.0 * theta_x * theta_p
    lhs = math.tan(angle) * (theta_x ** 2 - params.m ** 2 * params.omega ** 2 * theta_p ** 2)
    rhs = angle * params.m * params.alpha_xp
    scale = max(theta_x ** 2, params.m ** 2 * params.omega ** 2 * theta_p ** 2, abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def effective_mass_frequency(params, theta_x, theta_p):
    """Effective (M, Omega_sq) for a rotation with generic parameters.

    The pair must satisfy the transcendental cross-term-cancellation
    constraint to within TRANSCENDENTAL_TOL; the degenerate limits
    theta_p = 0 and theta_x = 0 dispatch to the closed-form branches.
    """
    if theta_p == 0.0:
        res = diag_branch_theta_p_zero(params)
        return res.M, res.Omega_sq
    if theta_x == 0.0:
        res = diag_branch_theta_x_zero(params)
        return res.M, res.Omega_sq

    residual = transcendental_residual(params, theta_x, theta_p)
    if residual > TRANSCENDENTAL_TOL:
        raise DomainError(
            f"rotation parameters do not cancel the cross term: residual {residual:.3e} "
            f"exceeds {TRANSCENDENTAL_TOL:.0e}")

    m, w, axp = params.m, params.omega, params.alpha_xp
    ratio_sq = (m * w * theta_p / theta_x) ** 2
    ratio = theta_p / theta_x
    angle = 4.0 * theta_x * theta_p
    c, s = math.cos(angle), math.sin(angle)
    denom = 1.0 + ratio_sq + (1.0 - ratio_sq) * c + 4.0 * m * axp * ratio * s
    if denom <= 0.0:
        raise ValidityError("effective mass diverges or turns negative for this rotation",
                            constraint="M > 0")
    big_m = 2.0 * m / denom
    omega_sq = (theta_x / theta_p) ** 2 / (2.0 * m * big_m) \
        * (1.0 + ratio_sq - (1.0 - ratio_sq) * c - 4.0 * m * axp * ratio * s)
    if omega_sq <= 0.0:
        raise ValidityError("effective squared frequency must be positive",
                            constraint="Omega^2 > 0")
    return big_m, omega_sq
