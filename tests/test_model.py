import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdqho.errors import ConfigError, DomainError, ValidityError
from tdqho.model import (DEFAULT_VALIDATION_GRID, UNCERTAINTY_SLACK,
                         EffectiveOscillator, MomentState,
                         PropagatorCoefficients, QuadraticParams,
                         coherent_moments, ground_moments, moment_series,
                         propagate_moments, validate)
from tdqho.timefunc import Constant, Cosine, Exponential, Polynomial, Tabulated

from test_acceptance import _mixed_random_params


def standard(horizon=10.0, **kw):
    return QuadraticParams.from_dict({"m": 1.0, "omega": 1.0,
                                      "horizon": horizon, **kw})


def test_from_dict_minimal():
    p = standard()
    assert p.m.value(3.0) == 1.0
    assert p.alpha_x.value(3.0) == 0.0
    assert p.hbar == 1.0


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="alpha_q"):
        QuadraticParams.from_dict({"m": 1, "omega": 1, "horizon": 1,
                                   "alpha_q": 2})


def test_from_dict_requires_core_fields():
    with pytest.raises(ConfigError):
        QuadraticParams.from_dict({"m": 1, "horizon": 1})


def test_params_take_time_functions_only():
    with pytest.raises(ConfigError, match="^m: expected a TimeFunction, got float$"):
        QuadraticParams(m=1.0, omega=Constant(1.0))


def test_json_roundtrip():
    p = QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.0, "rate": 0.1},
        "omega": {"kind": "cosine", "amplitude": 0.2,
                  "angular_frequency": 0.5, "phase": 0.1},
        "alpha_x": 0.3, "horizon": 5.0, "hbar": 2.0})
    q = QuadraticParams.from_dict(json.loads(json.dumps(p.to_dict())))
    for t in (0.0, 2.5, 5.0):
        assert q.m.value(t) == pytest.approx(p.m.value(t), rel=1e-15)
        assert q.omega.value(t) == pytest.approx(p.omega.value(t), rel=1e-15)
    assert q.hbar == 2.0


def test_horizon_must_be_positive():
    with pytest.raises(DomainError):
        standard(horizon=-1.0)


@pytest.mark.parametrize("key", ["horizon", "hbar"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_horizon_and_hbar_must_be_finite(key, value):
    with pytest.raises(DomainError, match=key):
        replace(standard(), **{key: value})


@pytest.mark.parametrize("text, key", [
    ('{"m": NaN, "omega": 1, "horizon": 1}', "m"),
    ('{"m": 1, "omega": 1, "horizon": Infinity}', "horizon"),
    ('{"m": 1, "omega": 1, "horizon": 1, "hbar": -Infinity}', "hbar"),
    ('{"m": 1, "omega": {"kind": "cosine", "amplitude": 1, '
     '"angular_frequency": NaN}, "horizon": 1}', "angular_frequency"),
    ('{"m": 1%s, "omega": 1, "horizon": 1}' % ("0" * 400), "m"),
], ids=["m-nan", "horizon-infinity", "hbar-minus-infinity", "frequency-nan",
        "m-int-beyond-float"])
def test_json_non_finite_number_is_config_error(text, key):
    # Python's json reads NaN and Infinity
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        QuadraticParams.from_dict(json.loads(text))


# -- kappa and the effective oscillator --------------------------------------


def effective(params, t):
    return EffectiveOscillator(params).at(t)


def test_kappa_static_is_twice_alpha_xp():
    k = effective(standard(alpha_xp=0.15), 1.0)
    assert k.kappa == pytest.approx(0.3, rel=1e-15)
    assert k.kappa_dot == pytest.approx(0.0, abs=1e-15)


def test_kappa_exponential_mass():
    # m = e^{gamma t}: mdot/m = gamma, so kappa = gamma/2 at all times
    gamma = 0.4
    p = standard(m={"kind": "exponential", "prefactor": 1.0, "rate": gamma})
    for t in (0.0, 1.0, 3.7):
        k = effective(p, t)
        assert k.kappa == pytest.approx(gamma / 2.0, rel=1e-14)
        assert k.kappa_dot == pytest.approx(0.0, abs=1e-14)


def test_kappa_dot_matches_finite_difference():
    # positive oscillating frequency via a dense tabulated curve
    grid = np.linspace(-0.2, 10.2, 3001)
    p = standard(m={"kind": "exponential", "prefactor": 1.2, "rate": 0.05},
                 omega={"kind": "tabulated", "grid": list(grid),
                        "values": list(1.0 + 0.1 * np.cos(0.6 * grid + 0.2))},
                 alpha_xp={"kind": "cosine", "amplitude": 0.03,
                           "angular_frequency": 0.4})
    h = 1e-5
    for t in (0.5, 2.0, 6.3):
        fd = (effective(p, t + h).kappa - effective(p, t - h).kappa) / (2.0 * h)
        assert effective(p, t).kappa_dot == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_effective_oscillator_static_limit():
    k = effective(standard(), 2.0)
    assert k.m5 == pytest.approx(1.0, rel=1e-15)
    assert k.omega5_sq == pytest.approx(1.0, rel=1e-15)
    assert k.m5_log_dot == pytest.approx(0.0, abs=1e-15)


def test_effective_oscillator_exponential_mass_is_constant():
    gamma = 0.3
    p = standard(m={"kind": "exponential", "prefactor": 2.0, "rate": gamma})
    ref_m5 = 2.0 * 1.0 / (1.0 + gamma / 2.0)
    for t in (0.0, 1.5, 4.0):
        k = effective(p, t)
        assert k.m5 == pytest.approx(ref_m5, rel=1e-14)
        assert k.omega5_sq == pytest.approx(1.0 - gamma ** 2 / 4.0, rel=1e-14)
        assert k.m5_log_dot == pytest.approx(0.0, abs=1e-14)


def test_m5_log_derivative_matches_finite_difference():
    grid = np.linspace(-0.2, 10.2, 3001)
    p = standard(m={"kind": "exponential", "prefactor": 1.1, "rate": 0.08},
                 omega={"kind": "tabulated", "grid": list(grid),
                        "values": list(1.2 + 0.15 * np.cos(0.5 * grid))})
    h = 1e-5
    for t in (1.0, 3.0, 7.0):
        fd = (math.log(effective(p, t + h).m5) - math.log(effective(p, t - h).m5)) / (2.0 * h)
        assert effective(p, t).m5_log_dot == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_effective_oscillator_rejects_negative_shifted_frequency():
    p = standard(alpha_xp=-0.6)  # omega + kappa = 1 - 1.2 < 0
    with pytest.raises(ValidityError):
        effective(p, 0.0)


def _reference_evaluators(fn, t):
    """(value, derivative, second derivative) at a scalar t, by the
    per-evaluator formulas of the kinds that criterion-5 sets draw."""
    if isinstance(fn, Constant):
        return fn.const, 0.0, 0.0
    if isinstance(fn, Cosine):
        a1 = -fn.amplitude * fn.angular_frequency
        a2 = -fn.amplitude * (fn.angular_frequency * fn.angular_frequency)
        return (fn.amplitude * np.cos(fn.angular_frequency * t + fn.phase),
                a1 * np.sin(fn.angular_frequency * t + fn.phase),
                a2 * np.cos(fn.angular_frequency * t + fn.phase))
    if isinstance(fn, Exponential):
        value = fn.prefactor * np.exp(fn.rate * t)
        return value, fn.rate * value, fn.rate * fn.rate * value
    raise TypeError(fn)


def _reference_at(params, t):
    """The effective quantities from separate evaluator calls."""
    m, md, mdd = _reference_evaluators(params.m, t)
    w, wd, wdd = _reference_evaluators(params.omega, t)
    axp, axpd, axpdd = _reference_evaluators(params.alpha_xp, t)
    ap, apd, apdd = _reference_evaluators(params.alpha_p, t)
    ax, axd, _ = _reference_evaluators(params.alpha_x, t)
    a0 = _reference_evaluators(params.alpha_0, t)[0]
    eta0 = _reference_evaluators(params.m, 0.0)[0] * _reference_evaluators(params.omega, 0.0)[0]
    mlog, wlog = md / m, wd / w
    kap = 0.5 * (mlog + wlog) + 2.0 * axp
    kap_dot = 0.5 * (mdd / m - mlog * mlog + wdd / w - wlog * wlog) + 2.0 * axpd
    denom = w + kap
    return (m, md, mdd, w, wd, wdd, axp, axpd, ap, apd, ax, a0,
            kap, kap_dot, eta0 / denom, -(wd + kap_dot) / denom, w * w - kap * kap,
            axd, apdd, axpdd)


def test_scalar_at_matches_per_evaluator_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(25):
        params = _mixed_random_params(rng)
        oscillator = EffectiveOscillator(params)
        for t in rng.uniform(0.0, params.horizon, 4):
            for tt in (float(t), np.float64(t)):
                got, ref = oscillator.at(tt), _reference_at(params, tt)
                assert len(got) == len(ref) == 20
                assert [np.float64(v).tobytes() for v in got] \
                    == [np.float64(v).tobytes() for v in ref]


def test_scalar_at_is_element_0_of_the_array_at_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(25):
        oscillator = EffectiveOscillator(_mixed_random_params(rng))
        for t in rng.uniform(0.0, oscillator.params.horizon, 20):
            assert [np.float64(v).tobytes() for v in oscillator.at(float(t))] \
                == [v[0].tobytes() for v in oscillator.at(np.array([t]))]


def test_scalar_at_takes_one_jet_per_coefficient(monkeypatch):
    calls = []
    for cls in (Constant, Cosine, Exponential, Polynomial, Tabulated):
        def counted(self, t, jet=cls.jet):
            calls.append(t)
            return jet(self, t)
        monkeypatch.setattr(cls, "jet", counted)
    p = standard(m={"kind": "exponential", "prefactor": 1.2, "rate": 0.05},
                 alpha_x={"kind": "cosine", "amplitude": 0.2, "angular_frequency": 0.7},
                 alpha_xp=0.05)
    oscillator = EffectiveOscillator(p)
    calls.clear()
    oscillator.at(1.3)
    assert len(calls) == 6


def test_validity_failure_names_the_least_time_in_any_order():
    # omega + kappa = 1 - 1.6 sin(pi t/4) < 0 at t = 1, 2 and 3
    p = standard(horizon=4.0, alpha_xp={
        "kind": "cosine", "amplitude": 0.8, "angular_frequency": math.pi / 4.0,
        "phase": math.pi / 2.0})
    with pytest.raises(ValidityError) as info:
        EffectiveOscillator(p).at(np.array([3.0, 2.0, 1.0]))
    assert (info.value.constraint, info.value.t) == ("omega + kappa > 0", 1.0)
    assert f"{1.0 - 1.6 * math.sin(math.pi / 4.0):.6e}" in str(info.value)


def test_gamma_squeeze_initial_value_is_one():
    # gamma(t) = sqrt(m(0) w(0) / (m(t) w(t))), the map's first scaling
    oscillator = EffectiveOscillator(
        standard(m={"kind": "exponential", "prefactor": 1.7, "rate": 0.1}))
    k = oscillator.at(0.0)
    assert math.sqrt(oscillator.eta0 / (k.m * k.omega)) == pytest.approx(1.0, rel=1e-15)


# -- moment states -----------------------------------------------------------


def test_ground_moments_saturate_uncertainty():
    s = ground_moments(2.0, 3.0, hbar=1.5)
    # the coherent state at amplitude 0, bit for bit, with +0.0 means
    assert s == MomentState(0.0, 0.0, 0.0, 1.5 / (2.0 * 2.0 * 3.0), 1.5 * 2.0 * 3.0 / 2.0, 0.0)
    assert math.copysign(1.0, s.mean_x) == math.copysign(1.0, s.mean_p) == 1.0
    assert s.var_x == pytest.approx(1.5 / 12.0, rel=1e-15)
    assert s.var_p == pytest.approx(1.5 * 3.0, rel=1e-15)
    assert s.uncertainty_product() == pytest.approx(1.5 ** 2 / 4.0, rel=1e-15)
    s.check(1.5)


def test_coherent_moments_displace_ground():
    alpha = 0.8 - 0.5j
    s = coherent_moments(alpha, 1.0, 2.0, hbar=1.0)
    g = ground_moments(1.0, 2.0, 1.0)
    assert s.var_x == pytest.approx(g.var_x, rel=1e-15)
    assert s.var_p == pytest.approx(g.var_p, rel=1e-15)
    assert s.mean_x == pytest.approx(math.sqrt(2.0 / 2.0) * alpha.real, rel=1e-14)
    assert s.mean_p == pytest.approx(math.sqrt(2.0 * 2.0) * alpha.imag, rel=1e-14)


@pytest.mark.parametrize("m0, omega0, hbar, name", [
    (-1.0, 1.0, 1.0, "m0"), (1.0, 0.0, 1.0, "omega0"), (1.0, 1.0, -0.5, "hbar"),
    (math.inf, 1.0, 1.0, "m0"), (1.0, math.nan, 1.0, "omega0"), (1.0, 1.0, math.inf, "hbar")])
def test_moment_constructors_reject_unphysical_scales(m0, omega0, hbar, name):
    for make in (lambda: ground_moments(m0, omega0, hbar),
                 lambda: coherent_moments(0.5, m0, omega0, hbar)):
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
            make()


@pytest.mark.parametrize("alpha", [complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_coherent_moments_reject_a_non_finite_amplitude(alpha):
    with pytest.raises(DomainError, match="amplitude must be finite"):
        coherent_moments(alpha, 1.0, 1.0)


def test_moment_state_check_rejects_sub_heisenberg():
    with pytest.raises(ValidityError):
        MomentState(0.0, 0.0, 0.0, 0.1, 0.1, 0.0).check(1.0)


def test_moment_state_check_rejects_negative_variance():
    with pytest.raises(ValidityError):
        MomentState(0.0, 0.0, 0.0, -0.5, 1.0, 0.0).check(1.0)


@pytest.mark.parametrize("field, value, message", [
    ("mean_x", math.nan, "non-finite moment"),
    ("var_p", -1.0, "variances must be positive"),
    ("var_x", 0.1, "uncertainty product 5.000000e-02 below bound 2.500000e-01"),
], ids=["non-finite", "negative-variance", "sub-heisenberg"])
def test_moment_state_check_names_the_first_bad_time_of_a_grid(field, value, message):
    times = np.linspace(0.0, 1.0, 5)
    good = MomentState(times, np.zeros(5), np.zeros(5), np.full(5, 0.5), np.full(5, 0.5),
                       np.zeros(5))
    assert good.check() is good
    bad = replace(good, **{field: np.where(times >= 0.5, value, getattr(good, field))})
    with pytest.raises(ValidityError, match=f"^{message}") as on_grid:
        bad.check()
    assert on_grid.value.t == 0.5
    # the one-time record at that time fails the same way
    with pytest.raises(ValidityError, match=f"^{message}") as at_once:
        bad.state(2).check()
    assert (str(at_once.value), at_once.value.t, at_once.value.constraint) \
        == (str(on_grid.value), on_grid.value.t, on_grid.value.constraint)


# -- whole-horizon validation ------------------------------------------------


def test_validate_accepts_standard_and_tracks_grid():
    report = validate(standard())
    assert report.ok
    assert DEFAULT_VALIDATION_GRID >= 4096
    report.raise_if_invalid()


def test_validate_flags_vanishing_frequency():
    grid = np.linspace(-0.2, 10.2, 2001)
    p = standard(omega={"kind": "tabulated", "grid": list(grid),
                        "values": list(1.0 - 0.12 * grid)})
    report = validate(p)
    assert not report.ok
    names = {c for c, _, _ in report.failures}
    assert any("omega" in n for n in names)
    with pytest.raises(ValidityError):
        report.raise_if_invalid()


def test_validate_flags_static_strong_coupling():
    report = validate(standard(alpha_xp=0.51))
    assert not report.ok


def test_validate_reports_static_strong_coupling_once():
    # kappa = 2 a_xp for constant coefficients, so the one effective-frequency
    # failure is the static condition omega^2 > 4 a_xp^2
    report = validate(standard(horizon=1.0, alpha_xp=0.51))
    assert len(report.failures) == 1
    constraint, t, value = report.failures[0]
    assert constraint == "omega^2 - kappa^2 > 0"
    assert t == 0.0
    assert value == pytest.approx(1.0 - 4.0 * 0.51 ** 2, rel=1e-12)


def test_kappa_rules_fail_at_plus_infinity():
    assert validate(standard(1.0, omega=1e200)).failures == (
        ("omega^2 - kappa^2 > 0", 0.0, math.inf),)
    assert validate(standard(1.0, alpha_xp=1e308)).failures == (
        ("omega + kappa > 0", 0.0, math.inf), ("omega^2 - kappa^2 > 0", 0.0, -math.inf))


def test_raise_if_invalid_raises_the_earliest_failure():
    # kappa = 50 gives omega^2 - kappa^2 < 0 from t = 0; m = e^(100 t)
    # overflows near t = 7.1, where omega + kappa turns NaN
    p = standard(m={"kind": "exponential", "prefactor": 1.0, "rate": 100.0})
    with np.errstate(all="ignore"):
        report = validate(p)
    assert [c for c, _, _ in report.failures] == ["omega + kappa > 0",
                                                  "omega^2 - kappa^2 > 0"]
    assert report.failures[0][1] > 7.0
    with pytest.raises(ValidityError) as info:
        report.raise_if_invalid()
    assert (info.value.constraint, info.value.t) == ("omega^2 - kappa^2 > 0", 0.0)


def test_validate_takes_three_array_jets(monkeypatch):
    calls = []
    for cls in (Constant, Cosine, Exponential, Polynomial, Tabulated):
        def counted(self, t, jet=cls.jet):
            calls.append(np.ndim(t))
            return jet(self, t)
        monkeypatch.setattr(cls, "jet", counted)
    p = standard(m={"kind": "exponential", "prefactor": 1.2, "rate": 0.05},
                 alpha_x={"kind": "cosine", "amplitude": 0.2, "angular_frequency": 0.7},
                 alpha_xp=0.05)
    assert validate(p).ok
    assert calls == [1, 1, 1]


_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@pytest.mark.parametrize("params", [
    pytest.param(standard(1.0, m=-1.0), id="m-negative"),
    pytest.param(standard(1.0, m=0.0), id="m-zero"),
    pytest.param(standard(1.0, omega=-1.0), id="omega-negative"),
    # omega + kappa fails from t = 0.366, before m or omega turns negative at 0.707
    pytest.param(standard(1.0, m={"kind": "polynomial", "coefficients": [1, 0, -2]}),
                 id="m-parabola"),
    pytest.param(standard(1.0, omega={"kind": "polynomial", "coefficients": [1, 0, -2]}),
                 id="omega-parabola"),
    # kappa = 2 a_xp dips below -1 on (0.86, 3.14)
    pytest.param(standard(4.0, alpha_xp={"kind": "cosine", "amplitude": 0.8,
                                         "angular_frequency": math.pi / 4.0,
                                         "phase": math.pi / 2.0}), id="alpha-xp-dip"),
    # omega^2 - kappa^2 < 0 from t = 0; kappa is NaN once m overflows near t = 7.1
    pytest.param(standard(m={"kind": "exponential", "prefactor": 1.0, "rate": 100.0}),
                 id="m-exp-100", marks=_OVERFLOW),
    # admissible until m and m' overflow together near t = 19.0, where kappa = inf/inf
    pytest.param(standard(20.0, m={"kind": "exponential", "prefactor": 1e300, "rate": 1.0}),
                 id="kappa-nan", marks=_OVERFLOW),
    # omega^2 - kappa^2 reads +inf from t = 0, as omega^2 overflows
    pytest.param(standard(1.0, omega=1e200), id="omega-squared-inf"),
    # kappa = 2 a_xp overflows, so omega + kappa reads +inf from t = 0
    pytest.param(standard(1.0, alpha_xp=1e308), id="kappa-inf"),
])
def test_validate_and_the_kernel_name_the_same_failure(params):
    with pytest.raises(ValidityError) as scan:
        validate(params).raise_if_invalid()
    grid = np.linspace(0.0, params.horizon, DEFAULT_VALIDATION_GRID)
    with pytest.raises(ValidityError) as kernel:
        EffectiveOscillator(params).at(grid[::-1])
    assert (kernel.value.constraint, kernel.value.t) == (scan.value.constraint, scan.value.t)


# -- moment map ----------------------------------------------------------------


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def unit_maps(draw):
    """(A, B, D, E) of rotation . squeeze . shear, so AE - BD = 1."""
    theta = draw(_floats(-math.pi, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    r = draw(_floats(0.5, 2.0))
    k = draw(_floats(-1.0, 1.0))
    return c * r, c * r * k + s / r, -s * r, -s * r * k + c / r


@st.composite
def physical_moments(draw):
    """(hbar, MomentState) with var_x var_p - cov^2 >= hbar^2/4."""
    hbar = draw(_floats(0.1, 3.0))
    var_x = 0.5 * hbar * draw(_floats(0.25, 4.0))
    cov = hbar * draw(_floats(-1.0, 1.0))
    excess = draw(_floats(0.0, 3.0))
    var_p = (0.25 * hbar * hbar * (1.0 + excess) + cov * cov) / var_x
    return hbar, MomentState(0.0, draw(_floats(-5.0, 5.0)), draw(_floats(-5.0, 5.0)),
                             var_x, var_p, cov)


@settings(max_examples=300, deadline=None)
@given(st.lists(unit_maps(), min_size=1, max_size=8), physical_moments(),
       st.tuples(*[_floats(-3.0, 3.0)] * 4))
def test_moment_map_preserves_uncertainty_product(maps, state, shifts):
    hbar, initial = state
    a, b, d, e = (np.array(col) for col in zip(*maps))
    bx_t, bp_t, bx0, bp0 = shifts
    out = propagate_moments(initial, PropagatorCoefficients(
        np.arange(len(maps), dtype=float), a, b, d, e, bx_t, bp_t, bx0, bp0))
    u0 = initial.uncertainty_product()
    u1 = out.uncertainty_product()
    assert np.all(np.abs(u1 - u0) <= 1e-9 * u0)
    assert np.all(u1 >= hbar ** 2 / 4.0 - UNCERTAINTY_SLACK)


@settings(max_examples=100, deadline=None)
@given(unit_maps(), physical_moments(), st.integers(1, 50))
def test_moment_map_returns_state_or_trajectory(m, state, n):
    _, initial = state
    scalar = propagate_moments(initial, PropagatorCoefficients(0.5, *m))
    assert isinstance(scalar, MomentState) and scalar.t == 0.5
    ts = np.linspace(0.0, 1.0, n)
    traj = propagate_moments(initial, PropagatorCoefficients(ts, *m))
    assert isinstance(traj, MomentState)
    for series in (traj.t, traj.mean_x, traj.mean_p, traj.var_x,
                   traj.var_p, traj.cov_xp):
        assert series.shape == (n,)
    for i in range(n):
        assert traj.state(i) == replace(scalar, t=float(ts[i]))


@st.composite
def quadratic_params(draw):
    """Any QuadraticParams whose coefficients cover [0, horizon]."""
    horizon = draw(_floats(0.1, 4.0))

    def coefficient():
        kind = draw(st.sampled_from(("constant", "cosine", "exponential",
                                     "polynomial", "tabulated")))
        if kind == "constant":
            return Constant(draw(_floats(-5.0, 5.0)))
        if kind == "cosine":
            return Cosine(draw(_floats(-5.0, 5.0)), draw(_floats(-5.0, 5.0)),
                          draw(_floats(-5.0, 5.0)))
        if kind == "exponential":
            return Exponential(draw(_floats(-5.0, 5.0)), draw(_floats(-1.0, 1.0)))
        if kind == "polynomial":
            return Polynomial(draw(st.lists(_floats(-5.0, 5.0), min_size=1, max_size=4)))
        grid = np.linspace(-0.5, horizon + 0.5, draw(st.integers(2, 6)))
        values = draw(st.lists(_floats(-5.0, 5.0), min_size=len(grid), max_size=len(grid)))
        return Tabulated(tuple(grid), tuple(values), draw(st.sampled_from((1, 3))))

    return QuadraticParams(*(coefficient() for _ in range(6)),
                           hbar=draw(_floats(0.01, 10.0)), horizon=horizon)


@settings(max_examples=100, deadline=None)
@given(quadratic_params())
def test_quadratic_params_from_dict_inverts_to_dict(params):
    assert QuadraticParams.from_dict(params.to_dict()) == params
    assert QuadraticParams.from_dict(json.loads(json.dumps(params.to_dict()))) == params


def test_moment_series_broadcasts_constants_keeping_signed_zero():
    traj = moment_series(np.arange(3.0), np.array([1.0, -0.0, 2.0]), -0.0,
                         0.5, 0.5, 0.0)
    assert np.all(np.signbit(traj.mean_p)) and not np.any(np.signbit(traj.cov_xp))
    assert np.signbit(traj.mean_x[1])
    assert traj.var_x.shape == (3,)
