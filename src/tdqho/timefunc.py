"""Time-dependent real coefficients with analytic derivatives.

Every Hamiltonian coefficient is a ``TimeFunction``: a real-valued function
of time whose ``jet`` gives its value and first two derivatives in one call,
with ``value``, ``derivative`` and ``second_derivative`` derived from it. The
closed-form kinds carry exact derivatives; the tabulated kind differentiates
its interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError


def parse_number(value, key):
    """A finite JSON number as a float; ConfigError naming ``key`` for anything
    else, NaN, Infinity (Python's json accepts both) and integers beyond the
    float range included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {number}")
    return number


def parse_numbers(value, key):
    """A JSON list of numbers as a tuple of floats; ConfigError naming ``key``
    for a string, any other non-list, or a non-number element."""
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(parse_number(v, f"{key}[{i}]") for i, v in enumerate(value))


class TimeFunction:
    """Base class. Each kind implements ``jet(t)``, returning (value, first
    derivative, second derivative) from one numpy expression: numpy float64
    scalars for a scalar t and arrays of t's shape for an array t, so a
    scalar t gives element 0 of the result for [t] bit for bit. ``value``,
    ``derivative`` and ``second_derivative`` are derived from ``jet``."""

    kind = "abstract"
    # times where the first derivative jumps
    kinks = ()

    def jet(self, t):
        raise NotImplementedError

    def value(self, t):
        return self.jet(t)[0]

    def derivative(self, t):
        return self.jet(t)[1]

    def second_derivative(self, t):
        return self.jet(t)[2]

    def check_domain(self, horizon):
        """Raise ConfigError if the function cannot cover [0, horizon]."""

    def to_dict(self):
        raise NotImplementedError

    @staticmethod
    def from_dict(obj, key="<anonymous>"):
        """Build a TimeFunction from a JSON-style dict (or a bare number,
        shorthand for a constant). ``key`` names the field in error messages."""
        if not isinstance(obj, dict):
            return Constant(parse_number(obj, key))
        kind = obj.get("kind")
        if kind not in _KINDS:
            raise ConfigError(f"{key}: unknown kind {kind!r}")
        try:
            return _KINDS[kind]._parse(obj)
        except KeyError as exc:
            raise ConfigError(f"{key}: missing field {exc.args[0]!r} for kind {kind!r}") from None
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class Constant(TimeFunction):
    const: float

    kind = "constant"

    def jet(self, t):
        d1, d2 = np.zeros((2, *np.shape(t)))
        return self.const + d1, d1, d2

    def to_dict(self):
        return {"kind": "constant", "value": self.const}

    @classmethod
    def _parse(cls, obj):
        return cls(parse_number(obj["value"], "value"))


@dataclass(frozen=True)
class Cosine(TimeFunction):
    """amplitude * cos(angular_frequency * t + phase)"""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0

    kind = "cosine"

    def jet(self, t):
        a, w = self.amplitude, self.angular_frequency
        arg = w * np.asarray(t, dtype=float) + self.phase
        c = np.cos(arg)
        return a * c, -a * w * np.sin(arg), -a * w ** 2 * c

    def to_dict(self):
        return {"kind": "cosine", "amplitude": self.amplitude,
                "angular_frequency": self.angular_frequency, "phase": self.phase}

    @classmethod
    def _parse(cls, obj):
        return cls(parse_number(obj["amplitude"], "amplitude"),
                   parse_number(obj["angular_frequency"], "angular_frequency"),
                   parse_number(obj.get("phase", 0.0), "phase"))


@dataclass(frozen=True)
class Exponential(TimeFunction):
    """prefactor * exp(rate * t)"""

    prefactor: float
    rate: float

    kind = "exponential"

    def jet(self, t):
        r = self.rate
        v = self.prefactor * np.exp(r * np.asarray(t, dtype=float))
        return v, r * v, r ** 2 * v

    def to_dict(self):
        return {"kind": "exponential", "prefactor": self.prefactor, "rate": self.rate}

    @classmethod
    def _parse(cls, obj):
        return cls(parse_number(obj["prefactor"], "prefactor"),
                   parse_number(obj["rate"], "rate"))


@dataclass(frozen=True)
class Polynomial(TimeFunction):
    """sum_k coefficients[k] * t**k"""

    coefficients: tuple
    _derivatives: tuple = field(default=(), compare=False, repr=False)

    kind = "polynomial"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ConfigError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        # polyder keeps at least one (zero) coefficient, so polyval always has one
        object.__setattr__(self, "_derivatives", (P.polyder(coeffs), P.polyder(coeffs, 2)))

    def jet(self, t):
        d1, d2 = self._derivatives
        return P.polyval(t, self.coefficients), P.polyval(t, d1), P.polyval(t, d2)

    def to_dict(self):
        return {"kind": "polynomial", "coefficients": list(self.coefficients)}

    @classmethod
    def _parse(cls, obj):
        return cls(parse_numbers(obj["coefficients"], "coefficients"))


@dataclass(frozen=True)
class Tabulated(TimeFunction):
    """Interpolates (grid, values) samples. order=3 uses scipy's CubicSpline,
    whose analytic derivatives serve as the function's derivatives; it is
    the only use of scipy in the package, imported when such a table is
    built. order=1 is piecewise linear with piecewise-constant first
    derivative and needs numpy alone."""

    grid: tuple
    values: tuple
    order: int = 3
    # order 3: scipy's CubicSpline, imported when such a table is built;
    # order 1: the (grid, values, slopes) arrays, numpy alone
    _fit: object = field(default=None, compare=False, repr=False)

    kind = "tabulated"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ConfigError("tabulated needs matching 1-d grid/values with >= 2 points")
        if not np.all(np.diff(g) > 0):
            raise ConfigError("tabulated time grid must be strictly increasing")
        if self.order not in (1, 3):
            raise ConfigError(f"tabulated interpolation order must be 1 or 3, got {self.order}")
        object.__setattr__(self, "grid", tuple(g))
        object.__setattr__(self, "values", tuple(v))
        if self.order == 3:
            # imported here, not at module level: loading scipy takes about
            # as long as a whole closed-form CLI run, and nothing else uses it
            from scipy.interpolate import CubicSpline
            fit = CubicSpline(g, v)
        else:
            fit = (g, v, np.diff(v) / np.diff(g))
        object.__setattr__(self, "_fit", fit)

    @property
    def kinks(self):
        return self.grid if self.order == 1 else ()

    def check_domain(self, horizon):
        if self.grid[0] > 0.0 or self.grid[-1] < horizon:
            raise ConfigError(
                f"tabulated grid [{self.grid[0]}, {self.grid[-1]}] does not cover [0, {horizon}]")

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        if self.order == 3:
            # the spline returns 0-d arrays for a 0-d t; [()] makes them scalars
            return tuple(self._fit(t, nu)[()] for nu in range(3))
        g, v, slopes = self._fit
        idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(slopes) - 1)
        return np.interp(t, g, v), slopes[idx], np.zeros(t.shape)[()]

    def to_dict(self):
        return {"kind": "tabulated", "grid": list(self.grid),
                "values": list(self.values), "order": self.order}

    @classmethod
    def _parse(cls, obj):
        order = parse_number(obj.get("order", 3), "order")
        if not order.is_integer():
            raise ConfigError(f"order: expected an integer, got {obj['order']!r}")
        return cls(parse_numbers(obj["grid"], "grid"), parse_numbers(obj["values"], "values"),
                   int(order))


_KINDS = {c.kind: c for c in (Constant, Cosine, Exponential, Polynomial, Tabulated)}
