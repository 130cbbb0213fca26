import math
from dataclasses import astuple

import numpy as np
import pytest

from tdqho.errors import DomainError, ValidityError
from tdqho.model import MomentState, ground_moments
from tdqho.pipeline import solve
from tdqho.scenarios import (CKSpec, DrivenSpec, ck_aux, ck_coefficients,
                             ck_ground_variances, ck_moments, ck_uncertainty,
                             driven_beta, driven_coefficients,
                             driven_moments_exact, driven_moments_rwa)


# -- periodically driven oscillator -------------------------------------------


def test_list_of_times_matches_array():
    driven = DrivenSpec(m=1.2, omega=1.0, drive_strength=0.3, drive_frequency=0.8)
    ck = CKSpec(m=1.1, omega=1.0, gamma=-0.3)
    times = [0.0, 0.7, 2.5, 9.0]
    cases = {
        "driven_coefficients": lambda t: driven_coefficients(driven, t),
        "ck_coefficients": lambda t: ck_coefficients(ck, t),
        "ck_uncertainty": lambda t: (ck_uncertainty(ck, t),),
        "driven_moments_exact": lambda t: astuple(
            driven_moments_exact(driven, driven.ground_state(), t)),
        "driven_moments_rwa": lambda t: astuple(driven_moments_rwa(driven, 0.2 - 0.1j, t)),
        "ck_moments": lambda t: astuple(ck_moments(ck, ck.ground_state(), t)),
    }
    for name, call in cases.items():
        for a, b in zip(call(times), call(np.array(times)), strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def test_driven_spec_defaults():
    spec = DrivenSpec(m=1.0, omega=2.0, drive_strength=0.1, drive_frequency=1.0)
    assert spec.horizon == pytest.approx(12.0 * math.pi / 2.0)
    assert not spec.is_resonant
    assert DrivenSpec(m=1.0, omega=2.0, drive_strength=0.1,
                      drive_frequency=2.0).is_resonant


def test_driven_params_reproduce_drive():
    spec = DrivenSpec(m=1.3, omega=1.1, drive_strength=0.2, drive_frequency=0.7)
    p = spec.to_params()
    for t in (0.0, 1.0, 2.5):
        assert p.alpha_x.value(t) == pytest.approx(0.2 * math.cos(0.7 * t),
                                                   rel=1e-15)
    assert p.m.value(5.0) == 1.3
    assert p.omega.value(5.0) == 1.1


def test_driven_beta_solves_displacement_equations():
    # both first-order displacement equations hold pointwise
    for wd in (0.6, 1.0):
        spec = DrivenSpec(m=1.2, omega=1.0, drive_strength=0.15,
                          drive_frequency=wd)
        h = 1e-6
        for t in (0.4, 2.0, 5.7):
            bx_p, bp_p = driven_beta(spec, t + h)
            bx_m, bp_m = driven_beta(spec, t - h)
            bx, bp = driven_beta(spec, t)
            dbx = (bx_p - bx_m) / (2.0 * h)
            dbp = (bp_p - bp_m) / (2.0 * h)
            assert dbx == pytest.approx(-bp / spec.m, rel=1e-7, abs=1e-8)
            assert dbp == pytest.approx(
                spec.m * spec.omega ** 2 * bx
                + spec.drive_strength * math.cos(wd * t), rel=1e-6, abs=1e-7)


def test_driven_closed_form_matches_pipeline_off_resonance():
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                      drive_frequency=0.5, horizon=8.0 * math.pi)
    sol = solve(spec.to_params(), n_samples=300)
    init = spec.ground_state()
    mt = sol.moments(init)
    ref = driven_moments_exact(spec, init, sol.grid)
    assert np.max(np.abs(mt.mean_x - ref.mean_x)) < 1e-10
    assert np.max(np.abs(mt.mean_p - ref.mean_p)) < 1e-10
    assert np.max(np.abs(mt.var_x - ref.var_x)) < 1e-12


def test_driven_closed_form_matches_pipeline_on_resonance():
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                      drive_frequency=1.0, horizon=8.0 * math.pi)
    sol = solve(spec.to_params(), n_samples=300)
    init = spec.ground_state()
    mt = sol.moments(init)
    ref = driven_moments_exact(spec, init, sol.grid)
    scale = np.max(np.abs(ref.mean_x))
    assert np.max(np.abs(mt.mean_x - ref.mean_x)) < 1e-10 * max(scale, 1.0)
    assert np.max(np.abs(mt.mean_p - ref.mean_p)) < 1e-10 * max(scale, 1.0)


def test_driven_resonant_amplitude_grows_linearly():
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1, drive_frequency=1.0)
    ts = np.linspace(0.0, spec.horizon, 2000)
    mt = driven_moments_exact(spec, spec.ground_state(), ts)
    # secular envelope: |x| <= |beta offset| + strength * t / (2 m omega)
    bound = 0.1 / 1.0 + 0.1 * ts / 2.0 + 1e-9
    assert np.all(np.abs(mt.mean_x) <= bound)
    late = np.max(np.abs(mt.mean_x[ts > 0.8 * spec.horizon]))
    assert late > 0.1 * 0.8 * spec.horizon / 2.0 * 0.8


def test_driven_variances_frozen_for_ground_start():
    spec = DrivenSpec(m=2.0, omega=1.5, drive_strength=0.3, drive_frequency=1.5)
    ts = np.linspace(0.0, spec.horizon, 500)
    mt = driven_moments_exact(spec, spec.ground_state(), ts)
    g = spec.ground_state()
    assert np.max(np.abs(mt.var_x - g.var_x)) < 1e-14
    assert np.max(np.abs(mt.var_p - g.var_p)) < 1e-14
    assert np.max(np.abs(mt.cov_xp)) < 1e-14


def test_driven_coefficients_are_bare_rotation():
    spec = DrivenSpec(m=1.4, omega=0.9, drive_strength=0.2, drive_frequency=0.5)
    for t in (0.0, 1.3, 4.0):
        A, B, D, E = driven_coefficients(spec, t)
        assert A == pytest.approx(math.cos(0.9 * t), rel=1e-15)
        assert B == pytest.approx(math.sin(0.9 * t) / (1.4 * 0.9), rel=1e-14,
                                  abs=1e-15)
        assert D == pytest.approx(-1.4 * 0.9 * math.sin(0.9 * t), rel=1e-14,
                                  abs=1e-15)
        assert A * E - B * D == pytest.approx(1.0, rel=1e-14)


# -- rotating-wave approximation ----------------------------------------------


def test_rwa_position_exact_on_resonance():
    # at exact resonance the averaged position equals the exact one
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.05, drive_frequency=1.0)
    ts = np.linspace(0.0, spec.horizon, 800)
    exact = driven_moments_exact(spec, spec.ground_state(), ts)
    rwa = driven_moments_rwa(spec, 0j, ts)
    assert np.max(np.abs(exact.mean_x - rwa.mean_x)) < 1e-12


def test_rwa_momentum_error_is_the_counter_rotating_term():
    # on resonance the averaged momentum misses exactly -(strength/2) sin(wt)
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.05, drive_frequency=1.0)
    ts = np.linspace(0.0, spec.horizon, 800)
    exact = driven_moments_exact(spec, spec.ground_state(), ts)
    rwa = driven_moments_rwa(spec, 0j, ts)
    predicted = -(0.05 / 2.0) * np.sin(ts)
    assert np.max(np.abs(exact.mean_p - rwa.mean_p - predicted)) < 1e-12


def test_rwa_coherent_start_drifts_with_detuning():
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.02,
                      drive_frequency=0.9, horizon=40.0)
    ts = np.linspace(0.0, 40.0, 400)
    rwa = driven_moments_rwa(spec, 0.5 + 0.0j, ts)
    # amplitude orbits the displaced fixed point at the detuning frequency
    assert np.max(np.abs(rwa.mean_x)) > 0.5
    assert np.max(np.abs(rwa.var_x - rwa.var_x[0])) < 1e-14


# -- exponential mass scaling --------------------------------------------------


def test_ck_spec_validity_window():
    with pytest.raises(ValidityError):
        CKSpec(m=1.0, omega=1.0, gamma=2.0)
    spec = CKSpec(m=1.0, omega=1.0, gamma=0.5)
    aux = ck_aux(spec)
    assert aux.omega5 == pytest.approx(math.sqrt(1.0 - 0.0625), rel=1e-15)


@pytest.mark.parametrize("spec, field", [
    (DrivenSpec, "m"), (DrivenSpec, "omega"), (DrivenSpec, "drive_strength"),
    (DrivenSpec, "drive_frequency"), (DrivenSpec, "hbar"), (DrivenSpec, "horizon"),
    (CKSpec, "m"), (CKSpec, "omega"), (CKSpec, "gamma"), (CKSpec, "hbar"),
    (CKSpec, "horizon")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_specs_reject_non_finite_numbers(spec, field, value):
    fields = {"m": 1.0, "omega": 1.0, "hbar": 1.0, "horizon": 10.0}
    fields.update({"drive_strength": 0.1, "drive_frequency": 1.0}
                  if spec is DrivenSpec else {"gamma": 0.25})
    fields[field] = value
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        spec(**fields)


def test_spec_defaults_derive_from_the_given_omega():
    assert DrivenSpec(omega=2).drive_frequency == 2.0
    assert DrivenSpec(omega=2).is_resonant
    assert CKSpec(omega=2).gamma == -0.5


def test_driven_spec_rejects_a_negative_drive_frequency():
    with pytest.raises(DomainError, match="^drive_frequency must be non-negative$"):
        DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1, drive_frequency=-1.0)


def test_ck_aux_identities():
    spec = CKSpec(m=1.3, omega=1.1, gamma=-0.4)
    aux = ck_aux(spec)
    assert aux.gamma_minus == pytest.approx(spec.gamma / aux.omega5, rel=1e-14)
    assert aux.gamma_plus == pytest.approx(2.0 * spec.omega / aux.omega5,
                                           rel=1e-14)
    # hyperbolic normalization of the envelope coefficients
    assert aux.gamma_plus ** 2 - aux.gamma_minus ** 2 == pytest.approx(4.0,
                                                                       rel=1e-13)


def test_ck_params_mass_profile():
    spec = CKSpec(m=2.0, omega=1.0, gamma=0.3)
    p = spec.to_params()
    for t in (0.0, 1.0, 3.0):
        assert p.m.value(t) == pytest.approx(2.0 * math.exp(0.3 * t), rel=1e-14)
    assert p.omega.value(2.0) == 1.0


def test_ck_coefficients_match_pipeline():
    spec = CKSpec(m=1.0, omega=1.0, gamma=-0.25)
    sol = solve(spec.to_params(), n_samples=250)
    A, B, D, E = ck_coefficients(spec, sol.grid)
    assert np.max(np.abs(sol.coeffs.A - A)) < 1e-11
    assert np.max(np.abs(sol.coeffs.B - B)) < 1e-11
    assert np.max(np.abs(sol.coeffs.D - D)) < 1e-11
    assert np.max(np.abs(sol.coeffs.E - E)) < 1e-11


def test_ck_moments_match_pipeline():
    spec = CKSpec(m=1.0, omega=1.0, gamma=-0.25)
    sol = solve(spec.to_params(), n_samples=250)
    init = MomentState(0.0, 0.6, -0.2, 0.5, 0.5, 0.0)
    mt = sol.moments(init)
    ref = ck_moments(spec, init, sol.grid)
    for a, b in ((mt.mean_x, ref.mean_x), (mt.mean_p, ref.mean_p),
                 (mt.var_x, ref.var_x), (mt.var_p, ref.var_p),
                 (mt.cov_xp, ref.cov_xp)):
        assert np.max(np.abs(a - b)) < 1e-10


def test_ck_ground_variance_envelopes():
    spec = CKSpec(m=1.0, omega=1.0, gamma=0.3)
    aux = ck_aux(spec)
    ts = np.linspace(0.0, spec.horizon, 700)
    vx, vp = ck_ground_variances(spec, ts)
    # closed envelope forms
    w5t = aux.omega5 * ts
    ref_x = spec.hbar * np.exp(-spec.gamma * ts) / (8.0 * spec.m * spec.omega) \
        * (4.0 * np.cos(2.0 * w5t) + 2.0 * aux.gamma_minus * np.sin(2.0 * w5t)
           + 2.0 * aux.gamma_plus ** 2 * np.sin(w5t) ** 2)
    assert np.max(np.abs(vx - ref_x)) < 1e-13
    # variance stays positive and bounded by the exponential envelopes
    assert np.all(vx > 0.0)
    env = spec.hbar * np.exp(-spec.gamma * ts) / (8.0 * spec.m * spec.omega) \
        * (4.0 + 2.0 * abs(aux.gamma_minus) + 2.0 * aux.gamma_plus ** 2)
    assert np.all(vx <= env + 1e-15)


def test_ck_uncertainty_returns_to_bound():
    # the uncertainty product touches hbar^2/4 whenever omega5 t = k pi
    spec = CKSpec(m=1.0, omega=1.0, gamma=-0.25)
    aux = ck_aux(spec)
    for k in (0, 1, 2):
        t = k * math.pi / aux.omega5
        assert ck_uncertainty(spec, t) == pytest.approx(0.25, abs=1e-12)
    # and exceeds it in between; the mid-period value reduces to hbar^2/4
    # in the gamma -> 0 limit where gamma_plus -> 2
    t_mid = 0.5 * math.pi / aux.omega5
    expected = (1.0 / 64.0) * (2.0 * aux.gamma_plus ** 2 - 4.0) ** 2
    assert ck_uncertainty(spec, t_mid) == pytest.approx(expected, rel=1e-12)
    assert expected > 0.25


def test_ck_sign_symmetry_between_quadratures():
    # time-reversing the mass scaling swaps the roles of the variances
    up = CKSpec(m=1.0, omega=1.0, gamma=0.35)
    down = CKSpec(m=1.0, omega=1.0, gamma=-0.35)
    ts = np.linspace(0.0, min(up.horizon, down.horizon), 300)
    vx_up, _ = ck_ground_variances(up, ts)
    _, vp_down = ck_ground_variances(down, ts)
    assert np.max(np.abs(vx_up - vp_down / (1.0 * 1.0) ** 2)) == 0.0


def test_ck_ground_start_stays_centered():
    spec = CKSpec(m=1.0, omega=1.0, gamma=0.2)
    ts = np.linspace(0.0, spec.horizon, 200)
    mt = ck_moments(spec, ground_moments(1.0, 1.0, 1.0), ts)
    assert np.max(np.abs(mt.mean_x)) == 0.0
    assert np.max(np.abs(mt.mean_p)) == 0.0
