"""Time-dependent real coefficients with analytic derivatives.

Every Hamiltonian coefficient is a ``TimeFunction``: a real-valued function
of time whose ``jet`` gives its value and first two derivatives in one call,
with ``value``, ``derivative`` and ``second_derivative`` derived from it. The
closed-form kinds carry exact derivatives; the tabulated kind differentiates
its piecewise-polynomial interpolant. numpy is all they need.
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


def _cubic_pieces(h, d, v):
    """Each piece's coefficients in t - grid[k], highest power first, of the
    not-a-knot cubic spline through values v with knot spacings h and secant
    slopes d (de Boor, A Practical Guide to Splines, ch. IV): knot slopes by a
    Thomas sweep on scipy's CubicSpline system, pieces formed as it forms them."""

    def end_row(h, d):
        # (diagonal, off-diagonal, right side) of the first row, the last on
        # the reversed table; two knots give the line, three the parabola
        if h.size < 3:
            return 1.0, h.size - 1.0, h.size * d[0]
        span = h[0] + h[1]
        return h[1], span, ((h[0] + 2.0 * span) * h[1] * d[0] + h[0] ** 2 * d[1]) / span

    # rows of sub * s[i-1] + diag * s[i] + sup * s[i+1] = rhs
    rows = np.zeros((4, h.size + 1))
    rows[:, 1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1], 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    rows[1:, 0] = end_row(h, d)
    rows[[1, 0, 3], -1] = end_row(h[::-1], d[::-1])
    sub, diag, sup, rhs = rows.tolist()
    for i in range(h.size + 1):  # sub[0] = 0: row 0 reads nothing at index -1
        pivot = diag[i] - sub[i] * sup[i - 1]
        sup[i] /= pivot
        rhs[i] = (rhs[i] - sub[i] * rhs[i - 1]) / pivot
    for i in range(h.size - 1, -1, -1):
        rhs[i] -= sup[i] * rhs[i + 1]
    s = np.array(rhs)
    e = (s[:-1] + s[1:] - 2.0 * d) / h
    return e / h, (d - s[:-1]) / h - e, s[:-1], v[:-1]


@dataclass(frozen=True)
class Tabulated(TimeFunction):
    """Interpolates (grid, values) samples, order=3 by the not-a-knot cubic
    spline and order=1 piecewise linearly, each piece a polynomial in
    t - grid[k] whose analytic derivatives are the function's; the end pieces
    extend past the grid."""

    grid: tuple
    values: tuple
    order: int = 3
    # the knots, and per piece (a column) its coefficients, highest power first
    _knots: np.ndarray = field(default=None, compare=False, repr=False)
    _pieces: np.ndarray = field(default=None, compare=False, repr=False)

    kind = "tabulated"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ConfigError("tabulated needs matching 1-d grid/values with >= 2 points")
        for name, a in (("grid", g), ("values", v)):
            if not np.all(np.isfinite(a)):
                raise ConfigError(f"tabulated {name} must be finite numbers")
        if not np.all(np.diff(g) > 0):
            raise ConfigError("tabulated time grid must be strictly increasing")
        if self.order not in (1, 3):
            raise ConfigError(f"tabulated interpolation order must be 1 or 3, got {self.order}")
        object.__setattr__(self, "grid", tuple(g))
        object.__setattr__(self, "values", tuple(v))
        h = np.diff(g)
        d = np.diff(v) / h
        pieces = _cubic_pieces(h, d, v) if self.order == 3 else (d, v[:-1])
        object.__setattr__(self, "_knots", g)
        object.__setattr__(self, "_pieces", np.array(pieces))

    @property
    def kinks(self):
        return self.grid if self.order == 1 else ()

    def check_domain(self, horizon):
        if self.grid[0] > 0.0 or self.grid[-1] < horizon:
            raise ConfigError(
                f"tabulated grid [{self.grid[0]}, {self.grid[-1]}] does not cover [0, {horizon}]")

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self._knots[1:-1], t, side="right")
        x = t - self._knots[k]
        # Horner's rule on the piece of each time (an end piece past the grid)
        value, *rest = self._pieces.take(k, axis=1)
        first = second = 0.0
        for c in rest:
            second = second * x + first
            first = first * x + value
            value = value * x + c
        return value, first, 2.0 * second

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
