"""Model definition for the general quadratic oscillator.

The Hamiltonian is

    H(t) = p^2 / (2 m(t)) + m(t) w(t)^2 x^2 / 2
         + a_x(t) x + a_p(t) p + a_xp(t) {x, p} + a_0(t)

with every coefficient a ``TimeFunction``. This module holds the parameter
container, one record of first and second moments at a time or over a
grid, the one linear moment map (A, B; D, E) with its displacement shifts
that the pipeline and the closed-form scenarios feed, the
``EffectiveOscillator``, whose ``at(t)`` returns one named record of the
coefficients' jets, the frequency shift kappa(t) and the effective
single-mode quantities derived from it, plus a grid-based validity scan.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, ValidityError
from .timefunc import REQUIRED, Constant, TimeFunction, parse_fields, parse_number

DEFAULT_VALIDATION_GRID = 4096
UNCERTAINTY_SLACK = 1e-9

_COEFF_KEYS = ("m", "omega", "alpha_x", "alpha_p", "alpha_xp", "alpha_0")
_ZERO = Constant(0.0)


@dataclass(frozen=True)
class QuadraticParams:
    """Coefficients of the quadratic Hamiltonian on the horizon [0, T]."""

    m: TimeFunction
    omega: TimeFunction
    alpha_x: TimeFunction = _ZERO
    alpha_p: TimeFunction = _ZERO
    alpha_xp: TimeFunction = _ZERO
    alpha_0: TimeFunction = _ZERO
    hbar: float = 1.0
    horizon: float = 1.0

    schema = (*((key, TimeFunction.from_dict, REQUIRED if key in ("m", "omega") else 0.0)
                for key in _COEFF_KEYS),
              ("hbar", parse_number, 1.0), ("horizon", parse_number, REQUIRED))

    def __post_init__(self):
        if not (0.0 < self.hbar < math.inf):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")
        if not (0.0 < self.horizon < math.inf):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        for key in _COEFF_KEYS:
            fn = getattr(self, key)
            if not isinstance(fn, TimeFunction):
                raise ConfigError(f"{key}: expected a TimeFunction, got {type(fn).__name__}")
            fn.check_domain(self.horizon)

    # -- config ----------------------------------------------------------

    @staticmethod
    def from_dict(obj):
        return QuadraticParams(*parse_fields(obj, QuadraticParams.schema))

    def to_dict(self):
        out = {"hbar": self.hbar, "horizon": self.horizon}
        for key in _COEFF_KEYS:
            out[key] = getattr(self, key).to_dict()
        return out

    def with_horizon(self, horizon):
        return replace(self, horizon=float(horizon))


@dataclass(frozen=True)
class MomentState:
    """First and second central moments at time t: floats at one time, or
    arrays over a grid of times t (``moment_series`` builds either)."""

    t: object
    mean_x: object
    mean_p: object
    var_x: object
    var_p: object
    cov_xp: object

    def state(self, i):
        """The moments at the i-th time of a grid, as floats."""
        return MomentState(float(self.t[i]), float(self.mean_x[i]),
                           float(self.mean_p[i]), float(self.var_x[i]),
                           float(self.var_p[i]), float(self.cov_xp[i]))

    def uncertainty_product(self):
        """var_x var_p - cov_xp^2, the Robertson-Schrodinger determinant of
        the covariance matrix, at least hbar^2/4 for a physical state. The
        uncertainty_product column of moments.csv and oracle.csv and sweep's
        min/max_uncertainty are var_x var_p alone."""
        return self.var_x * self.var_p - self.cov_xp ** 2

    def check(self, hbar=1.0):
        """Raise ValidityError unless the moments describe a physical state:
        at one time, or at every time of a grid, naming the first bad one."""
        if np.ndim(self.t):
            for i in range(len(self.t)):
                self.state(i).check(hbar)
            return self
        if not all(math.isfinite(v) for v in
                   (self.mean_x, self.mean_p, self.var_x, self.var_p, self.cov_xp)):
            raise ValidityError("non-finite moment", t=self.t)
        if self.var_x <= 0.0 or self.var_p <= 0.0:
            raise ValidityError("variances must be positive", t=self.t,
                                constraint="var_x > 0, var_p > 0")
        if self.uncertainty_product() < hbar ** 2 / 4.0 - UNCERTAINTY_SLACK:
            raise ValidityError(
                f"uncertainty product {self.uncertainty_product():.6e} below bound "
                f"{hbar ** 2 / 4.0:.6e}", t=self.t,
                constraint="var_x*var_p - cov_xp^2 >= hbar^2/4")
        return self


def ground_moments(m0, omega0, hbar=1.0):
    """Moments at t = 0 of the instantaneous ground state of the alpha-free
    oscillator."""
    return coherent_moments(0.0, m0, omega0, hbar)


def coherent_moments(alpha, m0, omega0, hbar=1.0):
    """Moments at t = 0 of a coherent state |alpha>; same variances as the
    ground state. A DomainError names a scale that is not positive and
    finite, or an amplitude that is not finite."""
    for name, value in (("m0", m0), ("omega0", omega0), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError(f"coherent amplitude must be finite, got {alpha!r}")
    mean_x = math.sqrt(2.0 * hbar / (m0 * omega0)) * alpha.real
    mean_p = math.sqrt(2.0 * hbar * m0 * omega0) * alpha.imag
    return MomentState(0.0, mean_x, mean_p,
                       hbar / (2.0 * m0 * omega0), hbar * m0 * omega0 / 2.0, 0.0)


# -- moment map ------------------------------------------------------------


def moment_series(t, mean_x, mean_p, var_x, var_p, cov_xp):
    """A MomentState of floats for a scalar t, else of arrays over the grid
    t. Constant series are broadcast to the grid by copying, not by
    arithmetic, so signed zeros survive."""
    if np.ndim(t) == 0:
        return MomentState(float(t), float(mean_x), float(mean_p),
                           float(var_x), float(var_p), float(cov_xp))
    times = np.asarray(t, dtype=float)

    def series(v):
        v = np.asarray(v, dtype=float)
        return v if v.shape == times.shape else np.full(times.shape, v)

    return MomentState(times, series(mean_x), series(mean_p),
                       series(var_x), series(var_p), series(cov_xp))


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Linear map of centered means plus the displacement shifts.

    (A, B; D, E) maps (x - beta_x(0), p + beta_p(0)) at time 0 to the
    centered pair (x - beta_x(t), p + beta_p(t)) at time t; determinant is 1.
    """

    t: object
    A: object
    B: object
    D: object
    E: object
    beta_x_t: object = 0.0
    beta_p_t: object = 0.0
    beta_x_0: float = 0.0
    beta_p_0: float = 0.0


def propagate_moments(initial, coeffs):
    """Push first and second moments through the linear map.

    Returns a MomentState at the time or grid coeffs.t.
    """
    a, b, d, e = coeffs.A, coeffs.B, coeffs.D, coeffs.E
    dx0 = initial.mean_x - coeffs.beta_x_0
    dp0 = initial.mean_p + coeffs.beta_p_0
    vx, vp, cv = initial.var_x, initial.var_p, initial.cov_xp
    return moment_series(
        coeffs.t,
        a * dx0 + b * dp0 + coeffs.beta_x_t,
        d * dx0 + e * dp0 - coeffs.beta_p_t,
        a * a * vx + b * b * vp + 2.0 * a * b * cv,
        d * d * vx + e * e * vp + 2.0 * d * e * cv,
        a * d * vx + b * e * vp + (a * e + b * d) * cv)


# -- effective oscillator --------------------------------------------------

_CONSTRAINTS = ("m > 0", "omega > 0", "omega + kappa > 0", "omega^2 - kappa^2 > 0")
_FLOAT_MAX = float(np.finfo(float).max)


def _admissibility(t, m, md, w, wd, axp):
    """(m'/m, w'/w, kappa, w + kappa, w^2 - kappa^2, failures) at the time(s)
    t from the jets of m, omega and a_xp there. failures holds, for each rule
    in _CONSTRAINTS's order, (constraint, least t in any order, value) where
    the value is not > 0, NaN included; the two kappa rules are read only where
    m > 0 and w > 0, and also fail at +inf (w^2 or kappa overflowed)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mlog, wlog = md / m, wd / w
        kap = 0.5 * (mlog + wlog) + 2.0 * axp
        shifted = w + kap
        w5sq = w * w - kap * kap
    positive = (m > 0.0) & (w > 0.0)
    # where w + kappa is +inf, w^2 - kappa^2 is +-inf or NaN: one bound serves both
    if np.all(positive & (shifted > 0.0) & (w5sq > 0.0) & (w5sq <= _FLOAT_MAX)):
        return mlog, wlog, kap, shifted, w5sq, ()
    times, positive = np.ravel(t), np.ravel(positive)
    failures = []
    for constraint, value, where, top in zip(_CONSTRAINTS, map(np.ravel, (m, w, shifted, w5sq)),
                                             (True, True, positive, positive),
                                             (np.inf, np.inf, _FLOAT_MAX, _FLOAT_MAX)):
        bad = np.flatnonzero(where & ~((value > 0.0) & (value <= top)))
        if bad.size:
            i = bad[np.argmin(times[bad])]
            failures.append((constraint, float(times[i]), float(value[i])))
    return mlog, wlog, kap, shifted, w5sq, tuple(failures)


EffectiveQuantities = namedtuple("EffectiveQuantities", (
    "m", "m_dot", "m_ddot", "omega", "omega_dot", "omega_ddot",
    "alpha_xp", "alpha_xp_dot", "alpha_p", "alpha_p_dot", "alpha_x", "alpha_0",
    "kappa", "kappa_dot", "m5", "m5_log_dot", "omega5_sq",
    "alpha_x_dot", "alpha_p_ddot", "alpha_xp_ddot"))
EffectiveQuantities.__doc__ = """The coefficients' jets at time(s) t and the
effective single-mode quantities derived from them: the frequency shift
kappa = (m'/m + w'/w)/2 + 2 a_xp and its rate, the mass
m5 = m(0) w(0) / (w + kappa), d ln m5/dt = -(w' + kappa') / (w + kappa) and
the squared frequency omega5_sq = w^2 - kappa^2."""


class EffectiveOscillator:
    """The effective oscillator of one parameter set, with
    eta0 = m(0) w(0). ``at(t)``, scalar or array t, takes one jet of each
    coefficient and returns its EffectiveQuantities, or raises what
    ValidityReport.raise_if_invalid raises for the failures validate's rule
    finds at those times: the earliest, the first in rule order on a tie."""

    def __init__(self, params):
        self.params = params
        self.eta0 = params.m.value(0.0) * params.omega.value(0.0)

    def at(self, t):
        p = self.params
        m, md, mdd = p.m.jet(t)
        w, wd, wdd = p.omega.jet(t)
        axp, axpd, axpdd = p.alpha_xp.jet(t)
        ap, apd, apdd = p.alpha_p.jet(t)
        ax, axd, _ = p.alpha_x.jet(t)
        a0 = p.alpha_0.jet(t)[0]
        mlog, wlog, kap, denom, w5sq, failures = _admissibility(t, m, md, w, wd, axp)
        if failures:
            ValidityReport(ok=False, failures=failures).raise_if_invalid()
        kap_dot = 0.5 * (mdd / m - mlog * mlog + wdd / w - wlog * wlog) + 2.0 * axpd
        return EffectiveQuantities(m, md, mdd, w, wd, wdd, axp, axpd, ap, apd, ax, a0,
                                   kap, kap_dot, self.eta0 / denom,
                                   -(wd + kap_dot) / denom, w5sq, axd, apdd, axpdd)


# -- validity scan ---------------------------------------------------------


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    failures: tuple = field(default_factory=tuple)  # (constraint, t, value)

    def raise_if_invalid(self):
        """Raise the failure at the earliest time (the first listed on a tie)."""
        if not self.ok:
            constraint, t, value = min(self.failures, key=lambda f: f[1])
            raise ValidityError(f"constraint violated: {constraint} (value {value:.6e})",
                                t=t, constraint=constraint)
        return self


def validate(params):
    """Scan a uniform grid on [0, T] for the applicability conditions of the
    diagonalization chain. Deterministic for fixed inputs.

    Checks m > 0, w > 0, w + kappa > 0 and w^2 - kappa^2 > 0, in that
    order, by the rule of every EffectiveOscillator.at pass: the kappa ones
    only where m and w hold, and failing at +inf. For structurally constant
    coefficients kappa = 2 a_xp, so the last check is also w^2 > 4 a_xp^2.
    """
    ts = np.linspace(0.0, params.horizon, DEFAULT_VALIDATION_GRID)
    m, md, _ = params.m.jet(ts)
    w, wd, _ = params.omega.jet(ts)
    failures = _admissibility(ts, m, md, w, wd, params.alpha_xp.jet(ts)[0])[-1]
    return ValidityReport(ok=not failures, failures=failures)
