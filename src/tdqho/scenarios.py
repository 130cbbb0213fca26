"""Closed-form reference scenarios: harmonically driven oscillator (exact
and rotating-wave approximation) and the exponentially mass-scaled
(Caldirola-Kanai style) oscillator.

These serve as analytic regression baselines for the general pipeline and
as CLI presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ValidityError
from .model import (PropagatorCoefficients, QuadraticParams, ground_moments,
                    moment_series, propagate_moments)
from .timefunc import Constant, Cosine, Exponential

RESONANCE_REL_TOL = 1e-12


def _require_finite_positive(spec):
    """DomainError naming the first field that is NaN or infinite (None, a
    default still to derive, passes), or unless m, omega, hbar are positive."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{field.name} must be finite, got {value}")
    if not (spec.m > 0.0 and spec.omega > 0.0 and spec.hbar > 0.0):
        raise DomainError("m, omega, hbar must be positive")


# -- driven oscillator -------------------------------------------------------


@dataclass(frozen=True)
class DrivenSpec:
    """Constant (m, omega) oscillator under drive_strength * cos(drive_frequency t),
    resonant unless drive_frequency is given; the defaults are the CLI's driven preset."""

    m: float = 1.0
    omega: float = 1.0
    drive_strength: float = 0.1
    drive_frequency: float = None
    hbar: float = 1.0
    horizon: float = None

    def __post_init__(self):
        _require_finite_positive(self)
        if self.drive_frequency is None:
            object.__setattr__(self, "drive_frequency", self.omega)
        if not (self.drive_frequency >= 0.0):
            raise DomainError("drive_frequency must be non-negative")
        if self.horizon is None:
            object.__setattr__(self, "horizon", 12.0 * math.pi / self.omega)

    @property
    def is_resonant(self):
        return abs(self.omega - self.drive_frequency) < RESONANCE_REL_TOL * self.omega

    def to_params(self):
        return QuadraticParams(
            m=Constant(self.m), omega=Constant(self.omega),
            alpha_x=Cosine(self.drive_strength, self.drive_frequency),
            hbar=self.hbar, horizon=self.horizon)

    def ground_state(self):
        return ground_moments(self.m, self.omega, self.hbar)


def driven_beta(spec, t):
    """Displacement pair (beta_x, beta_p) of the driven oscillator, with the
    automatic switch to the resonant limit forms."""
    m, w, od, wd = spec.m, spec.omega, spec.drive_strength, spec.drive_frequency
    t = np.asarray(t, dtype=float)
    if spec.is_resonant:
        bx = -od * (2.0 * np.cos(w * t) + w * t * np.sin(w * t)) / (2.0 * m * w * w)
        bp = -od * (np.sin(w * t) - w * t * np.cos(w * t)) / (2.0 * w)
        return bx, bp
    det = w * w - wd * wd
    bx = od * (wd * wd * np.cos(w * t) - w * w * np.cos(wd * t)) / (m * w * w * det)
    bp = od * wd * (wd * np.sin(w * t) - w * np.sin(wd * t)) / (w * det)
    return bx, bp


def driven_coefficients(spec, t):
    """(A, B, D, E) of the undriven rotation; drives only shift the means."""
    m, w = spec.m, spec.omega
    t = np.asarray(t, dtype=float)
    c, s = np.cos(w * t), np.sin(w * t)
    return c, s / (m * w), -m * w * s, c


def driven_moments_exact(spec, initial, t):
    """Closed-form moments of the driven oscillator at time(s) t."""
    bxt, bpt = driven_beta(spec, t)
    bx0 = -spec.drive_strength / (spec.m * spec.omega ** 2)
    return propagate_moments(initial, PropagatorCoefficients(
        t, *driven_coefficients(spec, t), beta_x_t=bxt, beta_p_t=bpt, beta_x_0=bx0))


def driven_moments_rwa(spec, alpha0, t):
    """Rotating-wave moments for an initial coherent amplitude alpha0.

    In the frame rotating at the drive frequency the amplitude obeys
    alpha' = -i*Delta*alpha - i*g/2 with Delta = omega - drive_frequency and
    g = drive_strength / sqrt(2 m omega hbar); variances stay frozen at the
    ground-state values.
    """
    m, w, wd, hbar = spec.m, spec.omega, spec.drive_frequency, spec.hbar
    delta = w - wd
    g = spec.drive_strength / math.sqrt(2.0 * m * w * hbar)
    alpha0 = complex(alpha0)
    t_arr = np.asarray(t, dtype=float)
    if spec.is_resonant:
        alpha = alpha0 - 0.5j * g * t_arr
    else:
        shift = g / (2.0 * delta)
        alpha = (alpha0 + shift) * np.exp(-1j * delta * t_arr) - shift
    lab = alpha * np.exp(-1j * wd * t_arr)
    mean_x = math.sqrt(2.0 * hbar / (m * w)) * np.real(lab)
    mean_p = math.sqrt(2.0 * m * w * hbar) * np.imag(lab)
    return moment_series(t, mean_x, mean_p,
                         hbar / (2.0 * m * w), hbar * m * w / 2.0, 0.0)


# -- exponentially mass-scaled oscillator ------------------------------------


@dataclass(frozen=True)
class CKSpec:
    """Oscillator with mass m * exp(gamma t) at constant frequency omega; the
    defaults are the CLI's ck preset, gamma = -omega/4 unless it is given."""

    m: float = 1.0
    omega: float = 1.0
    gamma: float = None
    hbar: float = 1.0
    horizon: float = None

    def __post_init__(self):
        _require_finite_positive(self)
        if self.gamma is None:
            object.__setattr__(self, "gamma", -self.omega / 4.0)
        if not (abs(self.gamma) < 2.0 * self.omega):
            raise ValidityError(
                f"|gamma| = {abs(self.gamma)} must stay below 2 omega = {2 * self.omega}",
                constraint="|gamma| < 2 omega")
        if self.horizon is None:
            w5 = self.omega * math.sqrt(1.0 - (self.gamma / (2.0 * self.omega)) ** 2)
            object.__setattr__(self, "horizon", 4.0 * math.pi / w5)

    def to_params(self):
        return QuadraticParams(
            m=Exponential(self.m, self.gamma), omega=Constant(self.omega),
            hbar=self.hbar, horizon=self.horizon)

    def ground_state(self):
        return ground_moments(self.m, self.omega, self.hbar)


@dataclass(frozen=True)
class CKAux:
    """Effective-mode constants of the mass-scaled oscillator."""

    m5: float
    omega5: float
    gamma_plus: float
    gamma_minus: float


def ck_aux(spec):
    """Effective mass/frequency and the dimensionless pair with
    gamma_plus^2 - gamma_minus^2 = 4."""
    w5_sq = spec.omega ** 2 - spec.gamma ** 2 / 4.0
    if w5_sq <= 0.0:
        raise ValidityError("effective frequency vanishes", constraint="|gamma| < 2 omega")
    w5 = math.sqrt(w5_sq)
    m5 = spec.m * spec.omega / (spec.omega + spec.gamma / 2.0)
    ratio = spec.m * spec.omega / (m5 * w5)
    return CKAux(m5=m5, omega5=w5,
                 gamma_plus=ratio + 1.0 / ratio, gamma_minus=ratio - 1.0 / ratio)


def ck_coefficients(spec, t):
    """(A, B, D, E) for the mass-scaled oscillator: the effective-frequency
    rotation dressed by the e^{-+ gamma t / 2} scaling envelopes."""
    aux = ck_aux(spec)
    m, w, g = spec.m, spec.omega, spec.gamma
    w5, gp, gm = aux.omega5, aux.gamma_plus, aux.gamma_minus
    t = np.asarray(t, dtype=float)
    c, s = np.cos(w5 * t), np.sin(w5 * t)
    down = np.exp(-g * t / 2.0)
    up = 1.0 / down
    a = 0.5 * down * (2.0 * c + gm * s)
    b = down * gp * s / (2.0 * m * w)
    d = -0.5 * up * m * w * gp * s
    e = 0.5 * up * (2.0 * c - gm * s)
    return a, b, d, e


def ck_moments(spec, initial, t):
    """Moments of the mass-scaled oscillator at time(s) t, any initial state."""
    return propagate_moments(initial, PropagatorCoefficients(t, *ck_coefficients(spec, t)))


def ck_uncertainty(spec, t):
    """sigma_x^2 * sigma_p^2 for the ground initial state; dips to hbar^2/4
    whenever omega5 * t is a multiple of pi."""
    mom = ck_moments(spec, spec.ground_state(), t)
    return mom.var_x * mom.var_p


def ck_ground_variances(spec, t):
    """Ground-start variances in the explicit envelope form (cross-check)."""
    aux = ck_aux(spec)
    w5, gp, gm = aux.omega5, aux.gamma_plus, aux.gamma_minus
    m, w, g, hbar = spec.m, spec.omega, spec.gamma, spec.hbar
    t = np.asarray(t, dtype=float)
    body_x = 4.0 * np.cos(2.0 * w5 * t) + 2.0 * gm * np.sin(2.0 * w5 * t) \
        + 2.0 * gp ** 2 * np.sin(w5 * t) ** 2
    body_p = 4.0 * np.cos(2.0 * w5 * t) - 2.0 * gm * np.sin(2.0 * w5 * t) \
        + 2.0 * gp ** 2 * np.sin(w5 * t) ** 2
    var_x = hbar * np.exp(-g * t) * body_x / (8.0 * m * w)
    var_p = hbar * m * w * np.exp(g * t) * body_p / 8.0
    return var_x, var_p
