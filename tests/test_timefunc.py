import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from tdqho.errors import ConfigError
from tdqho.timefunc import (Constant, Cosine, Exponential, Polynomial,
                            Tabulated, TimeFunction)

FD_H = 1e-6


def fd_derivative(fn, t, h=FD_H):
    return (fn.value(t + h) - fn.value(t - h)) / (2.0 * h)


def fd_second(fn, t, h=1e-4):
    return (fn.value(t + h) - 2.0 * fn.value(t) + fn.value(t - h)) / h ** 2


@pytest.mark.parametrize("fn,t", [
    (Constant(2.5), 1.3),
    (Cosine(0.4, 1.7, 0.3), 0.9),
    (Exponential(1.2, -0.35), 2.1),
    (Polynomial((1.0, -0.5, 0.25, 0.03)), 1.6),
])
def test_derivatives_match_finite_differences(fn, t):
    assert fn.derivative(t) == pytest.approx(fd_derivative(fn, t), abs=1e-8)
    assert fn.second_derivative(t) == pytest.approx(fd_second(fn, t), rel=1e-5,
                                                    abs=1e-6)


def test_constant_is_flat():
    c = Constant(3.0)
    assert c.value(0.0) == 3.0
    assert c.value(57.0) == 3.0
    assert c.derivative(12.0) == 0.0
    assert c.second_derivative(12.0) == 0.0


def test_cosine_closed_form():
    fn = Cosine(2.0, 3.0, 0.5)
    t = 0.7
    assert fn.value(t) == pytest.approx(2.0 * math.cos(3.0 * t + 0.5), rel=1e-15)
    assert fn.derivative(t) == pytest.approx(-6.0 * math.sin(3.0 * t + 0.5),
                                             rel=1e-15)
    assert fn.second_derivative(t) == pytest.approx(-9.0 * fn.value(t), rel=1e-15)


def test_exponential_self_similar():
    fn = Exponential(1.5, 0.2)
    t = 3.3
    assert fn.derivative(t) == pytest.approx(0.2 * fn.value(t), rel=1e-15)
    assert fn.second_derivative(t) == pytest.approx(0.04 * fn.value(t), rel=1e-15)


def test_polynomial_evaluation():
    fn = Polynomial((1.0, 2.0, 3.0))
    assert fn.value(2.0) == pytest.approx(1.0 + 4.0 + 12.0, rel=1e-15)
    assert fn.derivative(2.0) == pytest.approx(2.0 + 12.0, rel=1e-15)
    assert fn.second_derivative(2.0) == 6.0


def test_tabulated_cubic_reproduces_smooth_function():
    grid = np.linspace(-0.5, 10.5, 2201)
    fn = Tabulated(tuple(grid), tuple(np.sin(grid)))
    ts = np.linspace(0.0, 10.0, 57)
    for t in ts:
        assert fn.value(t) == pytest.approx(math.sin(t), abs=1e-9)
        assert fn.derivative(t) == pytest.approx(math.cos(t), abs=1e-7)
        assert fn.second_derivative(t) == pytest.approx(-math.sin(t), abs=1e-5)


def test_tabulated_linear_interpolates():
    fn = Tabulated((0.0, 1.0, 2.0), (0.0, 2.0, 2.0), order=1)
    assert fn.value(0.5) == 1.0
    assert fn.derivative(0.5) == pytest.approx(2.0)
    assert fn.derivative(1.5) == pytest.approx(0.0)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("t", [-0.5, 2.5])
def test_tabulated_extrapolates_its_end_pieces(t, order):
    # past the grid the value moves as the derivative says, for both orders
    fn = Tabulated((0.0, 1.0, 2.0), (0.0, 2.0, 3.0), order=order)
    assert fn.derivative(t) == pytest.approx(fd_derivative(fn, t), abs=1e-8)
    if order == 1:
        assert fn.jet(t) == {-0.5: (-1.0, 2.0, 0.0), 2.5: (3.5, 1.0, 0.0)}[t]


@pytest.mark.parametrize("knots", [2, 3, 4, 5, 11, 41, 4001])
def test_tabulated_cubic_jets_match_scipy_spline(knots):
    # the package's not-a-knot spline against scipy's on a non-uniform table,
    # at the knots, between them and 0.2 past each end. The largest deviation
    # measured 7.9e-15 of the largest |jet| (5 knots, second derivative, where
    # scipy is 7.6e-15 off the spline solved in exact rationals and this one
    # 7.3e-16); the bound is 5e-14
    rng = np.random.default_rng(knots)
    grid = np.cumsum(rng.uniform(0.1, 1.0, knots))
    values = rng.normal(size=knots)
    t = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), [grid[0] - 0.2, grid[-1] + 0.2]])
    reference = CubicSpline(grid, values)
    for nu, jet in enumerate(Tabulated(tuple(grid), tuple(values)).jet(t)):
        expected = reference(t, nu)
        np.testing.assert_allclose(jet, expected, rtol=0, atol=5e-14 * np.abs(expected).max())


def test_tabulated_requires_increasing_grid():
    with pytest.raises(ConfigError):
        Tabulated((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("grid, values, field", [
    ((0.0, math.nan, 2.0), (1.0, 2.0, 3.0), "grid"),
    ((0.0, 1.0, math.inf), (1.0, 2.0, 3.0), "grid"),
    ((0.0, 1.0, 2.0), (math.nan, 1.0, 2.0), "values"),
    ((0.0, 1.0, 2.0), (1.0, -math.inf, 2.0), "values"),
], ids=["grid-nan", "grid-inf", "values-nan", "values-inf"])
def test_tabulated_rejects_non_finite_numbers(grid, values, field, order):
    with pytest.raises(ConfigError, match=f"^tabulated {field} must be finite"):
        Tabulated(grid, values, order)


def test_tabulated_domain_check():
    fn = Tabulated((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))
    fn.check_domain(2.0)
    with pytest.raises(ConfigError):
        fn.check_domain(3.0)


def test_from_dict_roundtrip():
    for fn in (Constant(2.5), Cosine(0.4, 1.7, 0.3), Exponential(1.2, -0.35),
               Polynomial((1.0, -0.5)),
               Tabulated((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.5, 1.0))):
        back = TimeFunction.from_dict(fn.to_dict(), "m")
        assert type(back) is type(fn)
        for t in (0.1, 0.9, 1.7):
            assert back.value(t) == pytest.approx(fn.value(t), rel=1e-15)


def _floats(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def tabulated_functions(draw):
    # grid on multiples of 1/8 keeps the spline well conditioned
    ticks = draw(st.lists(st.integers(-80, 80), min_size=2, max_size=8, unique=True))
    grid = tuple(sorted(i / 8.0 for i in ticks))
    values = tuple(draw(st.lists(_floats(), min_size=len(grid), max_size=len(grid))))
    return Tabulated(grid, values, draw(st.sampled_from((1, 3))))


KIND_STRATEGIES = {
    "constant": st.builds(Constant, _floats()),
    "cosine": st.builds(Cosine, _floats(), _floats(), _floats()),
    "exponential": st.builds(Exponential, _floats(), _floats(-10.0, 10.0)),
    "polynomial": st.builds(Polynomial, st.lists(_floats(), min_size=1, max_size=6)),
    "tabulated": tabulated_functions(),
}


@pytest.mark.parametrize("kind", sorted(KIND_STRATEGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_dict_inverts_to_dict(kind, data):
    fn = data.draw(KIND_STRATEGIES[kind])
    assert TimeFunction.from_dict(fn.to_dict(), "m") == fn
    assert TimeFunction.from_dict(json.loads(json.dumps(fn.to_dict())), "m") == fn


def _same_bits(a, b):
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    return (type(a) is type(b) and a_arr.dtype == b_arr.dtype
            and a_arr.shape == b_arr.shape and a_arr.tobytes() == b_arr.tobytes())


# every kind takes one numpy path for any time: scalars for a scalar t
# (Python float or int, numpy float64), arrays of t's shape for an array t
TIME_STRATEGIES = {
    "float": _floats(-10.0, 10.0),
    "float64": _floats(-10.0, 10.0).map(np.float64),
    "int": st.integers(-10, 10),
    "array": st.lists(_floats(-10.0, 10.0), min_size=1, max_size=5).map(np.array),
}


@pytest.mark.parametrize("time_type", sorted(TIME_STRATEGIES))
@pytest.mark.parametrize("kind", sorted(KIND_STRATEGIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_jet_is_value_and_derivatives(kind, time_type, data):
    fn = data.draw(KIND_STRATEGIES[kind])
    t = data.draw(TIME_STRATEGIES[time_type])
    jet = fn.jet(t)
    assert len(jet) == 3
    for v, evaluator in zip(jet, (fn.value, fn.derivative, fn.second_derivative)):
        assert _same_bits(v, evaluator(t))
        assert np.ndim(v) == np.ndim(t)


@pytest.mark.parametrize("kind", sorted(KIND_STRATEGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalar_jet_is_element_0_of_the_array_jet(kind, data):
    fn = data.draw(KIND_STRATEGIES[kind])
    t = data.draw(_floats(-10.0, 10.0))
    for v, row in zip(fn.jet(t), fn.jet(np.array([t]))):
        assert _same_bits(v, row[0])


@pytest.mark.parametrize("cls", [Constant, Cosine, Exponential, Polynomial, Tabulated])
def test_kinds_write_their_formulas_once_in_jet(cls):
    assert "jet" in cls.__dict__
    assert not {"value", "derivative", "second_derivative"} & set(cls.__dict__)


def test_from_dict_accepts_bare_number():
    fn = TimeFunction.from_dict(4.5, "omega")
    assert isinstance(fn, Constant)
    assert fn.value(0.3) == 4.5


def test_from_dict_unknown_kind_names_key():
    with pytest.raises(ConfigError, match="omega"):
        TimeFunction.from_dict({"kind": "wavelet"}, "omega")


def test_from_dict_missing_field_names_key():
    with pytest.raises(ConfigError, match="m"):
        TimeFunction.from_dict({"kind": "cosine", "amplitude": 1.0}, "m")


def test_from_dict_names_a_missing_field_before_an_earlier_bad_value():
    with pytest.raises(ConfigError,
                       match="^m: missing field 'angular_frequency' for kind 'cosine'$"):
        TimeFunction.from_dict({"kind": "cosine", "amplitude": "x"}, "m")


# test_cli's documented config errors pin the tabulated "ordr" and cosine "phaze"
@pytest.mark.parametrize("obj, field", [
    ({"kind": "constant", "value": 1.0, "rate": 0.0}, "rate"),
    ({"kind": "polynomial", "coefficients": [1.0], "value": 2.0, "grid": []}, "value"),
], ids=["constant-rate", "polynomial-first-of-two"])
def test_from_dict_rejects_a_field_the_kind_does_not_declare(obj, field):
    with pytest.raises(ConfigError,
                       match=f"^m: unknown field '{field}' for kind '{obj['kind']}'$"):
        TimeFunction.from_dict(obj, "m")


_GRID3 = [0.0, 1.0, 2.0]


@pytest.mark.parametrize("obj, field", [
    ({"kind": "polynomial", "coefficients": "12"}, "coefficients"),
    ({"kind": "polynomial", "coefficients": [True, "2"]}, "coefficients"),
    ({"kind": "polynomial", "coefficients": 3.0}, "coefficients"),
    ({"kind": "tabulated", "grid": "012", "values": [1.0, 2.0, 3.0]}, "grid"),
    ({"kind": "tabulated", "grid": _GRID3, "values": [1.0, "2", 3.0]}, "values"),
    ({"kind": "tabulated", "grid": _GRID3, "values": [1.0, 2.0, True]}, "values"),
    ({"kind": "tabulated", "grid": _GRID3, "values": [1.0, 2.0, 3.0], "order": 3.7}, "order"),
], ids=["poly-string", "poly-bool-and-string", "poly-scalar", "tab-grid-string",
        "tab-values-string-element", "tab-values-bool", "tab-order-fraction"])
def test_list_fields_and_order_take_only_numbers(obj, field):
    with pytest.raises(ConfigError, match=rf"^m: {field}"):
        TimeFunction.from_dict(obj, "m")


# one example per row of the README kind table, using exactly the fields
# that row documents
README_EXAMPLES = {
    "constant": {"value": 2.5},
    "cosine": {"amplitude": 0.4, "angular_frequency": 1.7, "phase": 0.3},
    "exponential": {"prefactor": 1.2, "rate": -0.35},
    "polynomial": {"coefficients": [1.0, -0.5, 0.25]},
    "tabulated": {"grid": [0.0, 1.0, 2.0, 3.0], "values": [1.0, 2.0, 1.5, 1.0],
                  "order": 1},
}


def readme_kind_table():
    """kind -> set of documented fields, read from the rows under the README
    table header ``| kind | fields |`` and from no other table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()

    def cells(line):
        return [c.strip() for c in line.strip().strip("|").split("|")]

    start = next(i for i, line in enumerate(lines)
                 if line.startswith("|") and cells(line) == ["kind", "fields"])
    table = {}
    # skip the header and its |---| separator; the table ends at its first non-row
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start + 2:]):
        kind, fields = cells(line)
        table[kind.strip("`")] = set(re.findall(r"`(\w+)`", fields))
    return table


KIND_TABLE = readme_kind_table()
KIND_CLASSES = {c.kind: c for c in (Constant, Cosine, Exponential, Polynomial, Tabulated)}


def test_readme_kind_table_has_one_example_per_row():
    assert set(KIND_TABLE) == set(README_EXAMPLES)


@pytest.mark.parametrize("kind", sorted(KIND_TABLE))
def test_readme_kind_table_example_parses(kind):
    example = README_EXAMPLES[kind]
    assert set(example) == KIND_TABLE[kind]
    assert {name for name, _, _ in KIND_CLASSES[kind].schema} == KIND_TABLE[kind]
    fn = TimeFunction.from_dict({"kind": kind, **example}, kind)
    assert fn.kind == kind
    assert TimeFunction.from_dict(fn.to_dict(), kind) == fn
