"""Time-dependent real coefficients with analytic derivatives.

Every Hamiltonian coefficient is a ``TimeFunction``: a real-valued function
of time exposing ``value``, ``derivative`` and ``second_derivative``. The
closed-form kinds carry exact derivatives; the tabulated kind differentiates
its interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError


def parse_number(value, key):
    """A JSON number as a float; ConfigError naming ``key`` for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return float(value)


def parse_numbers(value, key):
    """A JSON list of numbers as a tuple of floats; ConfigError naming ``key``
    for a string, any other non-list, or a non-number element."""
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(parse_number(v, f"{key}[{i}]") for i, v in enumerate(value))


class TimeFunction:
    """Base class. Subclasses implement value/derivative/second_derivative,
    accepting scalars or numpy arrays."""

    kind = "abstract"

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def second_derivative(self, t):
        raise NotImplementedError

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

    def value(self, t):
        return self.const + np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.const

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

    second_derivative = derivative

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

    def value(self, t):
        return self.amplitude * np.cos(self.angular_frequency * np.asarray(t, dtype=float) + self.phase) \
            if np.ndim(t) else self.amplitude * math.cos(self.angular_frequency * t + self.phase)

    def derivative(self, t):
        a = -self.amplitude * self.angular_frequency
        return a * np.sin(self.angular_frequency * np.asarray(t, dtype=float) + self.phase) \
            if np.ndim(t) else a * math.sin(self.angular_frequency * t + self.phase)

    def second_derivative(self, t):
        a = -self.amplitude * self.angular_frequency ** 2
        return a * np.cos(self.angular_frequency * np.asarray(t, dtype=float) + self.phase) \
            if np.ndim(t) else a * math.cos(self.angular_frequency * t + self.phase)

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

    def value(self, t):
        return self.prefactor * np.exp(self.rate * np.asarray(t, dtype=float)) \
            if np.ndim(t) else self.prefactor * math.exp(self.rate * t)

    def derivative(self, t):
        return self.rate * self.value(t)

    def second_derivative(self, t):
        return self.rate ** 2 * self.value(t)

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

    kind = "polynomial"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ConfigError("polynomial needs at least one coefficient")

    def value(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)

    def derivative(self, t):
        c = np.polynomial.polynomial.polyder(self.coefficients)
        return np.polynomial.polynomial.polyval(t, c) if len(c) else (
            np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0)

    def second_derivative(self, t):
        c = np.polynomial.polynomial.polyder(self.coefficients, 2)
        return np.polynomial.polynomial.polyval(t, c) if len(c) else (
            np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0)

    def to_dict(self):
        return {"kind": "polynomial", "coefficients": list(self.coefficients)}

    @classmethod
    def _parse(cls, obj):
        return cls(parse_numbers(obj["coefficients"], "coefficients"))


@dataclass(frozen=True)
class Tabulated(TimeFunction):
    """Interpolates (grid, values) samples. order=3 uses a cubic spline whose
    analytic derivatives serve as the function's derivatives; order=1 is
    piecewise linear with piecewise-constant first derivative."""

    grid: tuple
    values: tuple
    order: int = 3
    _spline: object = field(default=None, compare=False, repr=False)

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
            object.__setattr__(self, "_spline", CubicSpline(g, v))

    def check_domain(self, horizon):
        if self.grid[0] > 0.0 or self.grid[-1] < horizon:
            raise ConfigError(
                f"tabulated grid [{self.grid[0]}, {self.grid[-1]}] does not cover [0, {horizon}]")

    def value(self, t):
        if self.order == 3:
            return self._spline(t) if np.ndim(t) else float(self._spline(t))
        out = np.interp(t, self.grid, self.values)
        return out if np.ndim(t) else float(out)

    def derivative(self, t):
        if self.order == 3:
            d = self._spline(t, 1)
            return d if np.ndim(t) else float(d)
        g = np.asarray(self.grid)
        slopes = np.diff(self.values) / np.diff(g)
        idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx] if np.ndim(t) else float(slopes[idx])

    def second_derivative(self, t):
        if self.order == 3:
            d = self._spline(t, 2)
            return d if np.ndim(t) else float(d)
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

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
