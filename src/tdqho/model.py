"""Model definition for the general quadratic oscillator.

The Hamiltonian is

    H(t) = p^2 / (2 m(t)) + m(t) w(t)^2 x^2 / 2
         + a_x(t) x + a_p(t) p + a_xp(t) {x, p} + a_0(t)

with every coefficient a ``TimeFunction``. This module holds the parameter
container, first/second moments of a state and of a trajectory, the one
linear moment map (A, B; D, E) with its displacement shifts that the
pipeline and the closed-form scenarios feed, the auxiliary frequency-shift
kappa(t) and the effective single-mode quantities derived from it, plus a
grid-based validity scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, ValidityError
from .timefunc import Constant, TimeFunction, parse_number

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
        if not isinstance(obj, dict):
            raise ConfigError("config root must be an object")
        known = set(_COEFF_KEYS) | {"hbar", "horizon"}
        for key in obj:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for key in ("m", "omega", "horizon"):
            if key not in obj:
                raise ConfigError(f"missing required config key {key!r}")
        fns = {key: TimeFunction.from_dict(obj[key], key=key) for key in _COEFF_KEYS
               if key in obj}
        return QuadraticParams(hbar=parse_number(obj.get("hbar", 1.0), "hbar"),
                               horizon=parse_number(obj["horizon"], "horizon"), **fns)

    @staticmethod
    def from_json(text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return QuadraticParams.from_dict(obj)

    def to_dict(self):
        out = {"hbar": self.hbar, "horizon": self.horizon}
        for key in _COEFF_KEYS:
            out[key] = getattr(self, key).to_dict()
        return out

    def with_horizon(self, horizon):
        return replace(self, horizon=float(horizon))


@dataclass(frozen=True)
class MomentState:
    """First and second central moments of a state at time t."""

    t: float
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float

    def uncertainty_product(self):
        return self.var_x * self.var_p - self.cov_xp ** 2

    def check(self, hbar=1.0):
        """Raise ValidityError unless the moments describe a physical state."""
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


def ground_moments(m0, omega0, hbar=1.0, t=0.0):
    """Moments of the instantaneous ground state of the alpha-free oscillator."""
    return coherent_moments(0.0, m0, omega0, hbar, t)


def coherent_moments(alpha, m0, omega0, hbar=1.0, t=0.0):
    """Moments of a coherent state |alpha>; same variances as the ground
    state. A DomainError names a scale that is not positive and finite, or
    an amplitude that is not finite."""
    for name, value in (("m0", m0), ("omega0", omega0), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError(f"coherent amplitude must be finite, got {alpha!r}")
    mean_x = math.sqrt(2.0 * hbar / (m0 * omega0)) * alpha.real
    mean_p = math.sqrt(2.0 * hbar * m0 * omega0) * alpha.imag
    return MomentState(t, mean_x, mean_p,
                       hbar / (2.0 * m0 * omega0), hbar * m0 * omega0 / 2.0, 0.0)


# -- moment map ------------------------------------------------------------


@dataclass(frozen=True)
class MomentTrajectory:
    """Moment arrays on a common time grid."""

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    cov_xp: np.ndarray

    def state(self, i):
        return MomentState(float(self.times[i]), float(self.mean_x[i]),
                           float(self.mean_p[i]), float(self.var_x[i]),
                           float(self.var_p[i]), float(self.cov_xp[i]))

    def uncertainty_product(self):
        return self.var_x * self.var_p - self.cov_xp ** 2


def moment_series(t, mean_x, mean_p, var_x, var_p, cov_xp):
    """Moments at time(s) t: a MomentState for scalar t, else a
    MomentTrajectory. Constant series are broadcast to the grid by copying,
    not by arithmetic, so signed zeros survive."""
    if np.ndim(t) == 0:
        return MomentState(float(t), float(mean_x), float(mean_p),
                           float(var_x), float(var_p), float(cov_xp))
    times = np.asarray(t, dtype=float)

    def series(v):
        v = np.asarray(v, dtype=float)
        return v if v.shape == times.shape else np.full(times.shape, v)

    return MomentTrajectory(times, series(mean_x), series(mean_p),
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

    Returns a MomentState for a scalar coeffs.t, else a MomentTrajectory.
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

_SHIFTED_FREQUENCY = "omega + kappa > 0"
_EFFECTIVE_FREQUENCY = "omega^2 - kappa^2 > 0"


def _violation(constraint, t, value):
    return ValidityError(f"constraint violated: {constraint} (value {value:.6e})",
                         t=t, constraint=constraint)


def _require_positive(value, t, constraint):
    """Raise ValidityError at the least t, in any order, where ``value`` <= 0."""
    bad = np.flatnonzero(value <= 0.0)
    if bad.size:
        i = bad[np.argmin(np.ravel(t)[bad])]
        raise _violation(constraint, float(np.ravel(t)[i]), float(np.ravel(value)[i]))


def _kappa(m_log_dot, w_log_dot, axp):
    return 0.5 * (m_log_dot + w_log_dot) + 2.0 * axp


class _EffectiveOscillator:
    """The effective oscillator, with eta0 = m(0) w(0). ``at(t)``, scalar or
    array t, takes one jet of each coefficient and returns the plain tuple
    (m, m', m'', w, w', w'', a_xp, a_xp', a_p, a_p', a_x, a_0, kappa, kappa',
    m5, d ln m5/dt, w5^2), or raises ValidityError at the least t where
    w + kappa or w5^2 = w^2 - kappa^2 is not positive. ``at_with_rates(t)``
    also returns (a_x', a_p'', a_xp'') from the same jets."""

    def __init__(self, params):
        self.params = params
        self.eta0 = params.m.value(0.0) * params.omega.value(0.0)

    def at(self, t):
        return self.at_with_rates(t)[0]

    def at_with_rates(self, t):
        p = self.params
        m, md, mdd = p.m.jet(t)
        w, wd, wdd = p.omega.jet(t)
        axp, axpd, axpdd = p.alpha_xp.jet(t)
        ap, apd, apdd = p.alpha_p.jet(t)
        ax, axd, _ = p.alpha_x.jet(t)
        a0 = p.alpha_0.jet(t)[0]
        mlog, wlog = md / m, wd / w
        kap = _kappa(mlog, wlog, axp)
        denom = w + kap
        w5sq = w * w - kap * kap
        _require_positive(denom, t, _SHIFTED_FREQUENCY)
        _require_positive(w5sq, t, _EFFECTIVE_FREQUENCY)
        kap_dot = 0.5 * (mdd / m - mlog * mlog + wdd / w - wlog * wlog) + 2.0 * axpd
        return ((m, md, mdd, w, wd, wdd, axp, axpd, ap, apd, ax, a0,
                 kap, kap_dot, self.eta0 / denom, -(wd + kap_dot) / denom, w5sq),
                (axd, apdd, axpdd))


def kappa(params, t):
    """Frequency shift kappa = (m'/m + w'/w)/2 + 2*a_xp."""
    m, md, _ = params.m.jet(t)
    w, wd, _ = params.omega.jet(t)
    return _kappa(md / m, wd / w, params.alpha_xp.jet(t)[0])


def kappa_dot(params, t):
    """Time derivative of kappa, using analytic second derivatives."""
    *_, k_dot, _, _, _ = _EffectiveOscillator(params).at(t)
    return k_dot


def effective_m5_omega5(params, t):
    """Effective mass and squared frequency after the time-dependent part of
    the diagonalization chain: m5 = m(0) w(0) / (w + kappa), w5^2 = w^2 - kappa^2.
    Returns (m5, omega5_sq); raises ValidityError where either is not positive."""
    *_, m5, _, w5sq = _EffectiveOscillator(params).at(t)
    return m5, w5sq


def m5_log_derivative(params, t):
    """d/dt ln m5 = -(w' + kappa') / (w + kappa)."""
    *_, m5_log_dot, _ = _EffectiveOscillator(params).at(t)
    return m5_log_dot


def gamma_squeeze(params, t):
    """Scaling gamma(t) = sqrt(m(0) w(0) / (m(t) w(t)))."""
    eta0 = _EffectiveOscillator(params).eta0
    return np.sqrt(eta0 / (params.m.value(t) * params.omega.value(t)))


# -- validity scan ---------------------------------------------------------


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    failures: tuple = field(default_factory=tuple)  # (constraint, t, value)
    grid_points: int = DEFAULT_VALIDATION_GRID

    def raise_if_invalid(self):
        """Raise the failure at the earliest time (the first listed on a tie)."""
        if not self.ok:
            raise _violation(*min(self.failures, key=lambda f: f[1]))
        return self


def validate(params):
    """Scan a uniform grid on [0, T] for the applicability conditions of the
    diagonalization chain. Deterministic for fixed inputs.

    Checks m > 0, w > 0, w + kappa > 0 and w^2 - kappa^2 > 0 everywhere. For
    structurally constant coefficients kappa = 2 a_xp, so the last check is
    also the static condition w^2 > 4 a_xp^2.
    """
    ts = np.linspace(0.0, params.horizon, DEFAULT_VALIDATION_GRID)
    m, md, _ = params.m.jet(ts)
    w, wd, _ = params.omega.jet(ts)
    failures = []

    def scan(name, arr):
        bad = np.flatnonzero(~(arr > 0.0))
        if bad.size:
            failures.append((name, float(ts[bad[0]]), float(arr[bad[0]])))

    scan("m > 0", m)
    scan("omega > 0", w)
    if not failures:
        k = _kappa(md / m, wd / w, params.alpha_xp.jet(ts)[0])
        scan(_SHIFTED_FREQUENCY, w + k)
        scan(_EFFECTIVE_FREQUENCY, w * w - k * k)
    return ValidityReport(ok=not failures, failures=tuple(failures))
