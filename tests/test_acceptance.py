"""Acceptance suite: one test per shipped guarantee.

Each criterion is a single test function, so a verbose run prints exactly
one PASS/FAIL line per criterion. Relative comparisons on oscillating
series are normalized by the series amplitude; closed forms cross zero
repeatedly, so pointwise division would measure only roundoff placement.
"""

import math
import time

import numpy as np
import pytest

from tdqho.model import QuadraticParams, coherent_moments, validate
from tdqho.oracle import build_operators, coherent_state, ground_state, propagate_state
from tdqho.pipeline import beta_ode_residual, ermakov_residual, solve
from tdqho.scenarios import (CKSpec, DrivenSpec, ck_aux, ck_ground_variances,
                             ck_uncertainty, driven_moments_exact,
                             driven_moments_rwa)
from tdqho.staticdiag import (StaticParams, diag_branch_theta_p_zero,
                              diag_branch_theta_x_zero)

TWO_PI = 2.0 * math.pi


def series_rel_err(a, ref):
    """max |a - ref| / max |ref|: amplitude-normalized worst-case error."""
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(ref)))) / scale


# -- criterion 1: resonant drive against the explicit closed forms ------------


def test_criterion_1_resonant_closed_forms_pipeline_and_oracle():
    t0 = time.perf_counter()
    m, w, s = 1.0, 1.0, 0.1
    horizon = 6.0 * TWO_PI / w
    spec = DrivenSpec(m=m, omega=w, drive_strength=s, drive_frequency=w,
                      horizon=horizon)
    params = spec.to_params()
    sol = solve(params, n_samples=2000)
    ts = sol.grid
    ref_x = -s * ts * np.sin(w * ts) / (2.0 * m * w)
    ref_p = -(s / (2.0 * w)) * (w * ts * np.cos(w * ts) + np.sin(w * ts))

    mt = sol.moments(spec.ground_state())
    assert series_rel_err(mt.mean_x, ref_x) < 1e-8
    assert series_rel_err(mt.mean_p, ref_p) < 1e-8

    ops = build_operators(64, m, w, 1.0)
    run = propagate_state(ground_state(ops), params, ts, ops,
                          dt=5e-4 * TWO_PI / w)
    assert run.reliable
    assert series_rel_err(run.moments.mean_x, ref_x) < 1e-4
    assert series_rel_err(run.moments.mean_p, ref_p) < 1e-4

    assert time.perf_counter() - t0 < 10.0


# -- criterion 2: drive leaves a ground start at minimum uncertainty ----------


def test_criterion_2_driven_variances_stay_minimal():
    for wd_factor in (1.0, 0.5):
        spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                          drive_frequency=wd_factor, horizon=6.0 * TWO_PI)
        params = spec.to_params()
        sol = solve(params, n_samples=1200)
        mt = sol.moments(spec.ground_state())
        assert np.max(np.abs(mt.var_x - 0.5)) < 1e-12
        assert np.max(np.abs(mt.uncertainty_product() - 0.25)) < 1e-12

        ops = build_operators(64, 1.0, 1.0, 1.0)
        run = propagate_state(ground_state(ops), params, sol.grid, ops)
        assert run.reliable
        assert np.max(np.abs(run.moments.var_x - 0.5)) < 1e-5
        assert np.max(np.abs(run.moments.uncertainty_product() - 0.25)) < 1e-5


# -- criterion 3: exponential mass scaling, breathing uncertainty -------------


def test_criterion_3_mass_scaled_oscillator_uncertainty_breathing():
    spec = CKSpec(m=1.0, omega=1.0, gamma=-0.25)
    aux = ck_aux(spec)
    params = spec.to_params()
    minima = np.array([k * math.pi / aux.omega5 for k in range(4)])
    sol = solve(params, n_samples=400)
    init = spec.ground_state()

    mt = sol.moments(init)
    assert np.max(np.abs(mt.mean_x)) < 1e-10
    assert np.max(np.abs(mt.mean_p)) < 1e-10

    # uncertainty minima hbar^2/4 at omega5 t = k pi: closed form and pipeline
    for t_k in minima:
        assert abs(ck_uncertainty(spec, float(t_k)) - 0.25) < 1e-8
        st = sol.moments_at(init, float(t_k))
        assert abs(st.uncertainty_product() - 0.25) < 1e-8

    # oracle over one breathing period on a grid containing the minima;
    # longer horizons squeeze too much population into the basis tail for
    # the truncation alarm at this size
    period = TWO_PI / aux.omega5
    o_minima = minima[minima <= period + 1e-12]
    o_grid = np.union1d(np.linspace(0.0, period, 201), o_minima)
    ops = build_operators(64, 1.0, 1.0, 1.0)
    run = propagate_state(ground_state(ops), params.with_horizon(period),
                          o_grid, ops)
    assert run.reliable
    assert np.max(np.abs(run.moments.mean_x)) < 1e-10
    assert np.max(np.abs(run.moments.mean_p)) < 1e-10
    unc = run.moments.uncertainty_product()
    for t_k in o_minima:
        i = int(np.argmin(np.abs(run.moments.t - t_k)))
        assert abs(unc[i] - 0.25) < 1e-4

    # pipeline variances match the explicit envelope forms, and removing
    # e^{-gamma t} (x) or e^{+gamma t} (p) leaves a pi/omega5 periodic
    # factor: the envelopes grow and decay at exactly those rates
    vx_ref, vp_ref = ck_ground_variances(spec, sol.grid)
    assert np.max(np.abs(mt.var_x - vx_ref)) < 1e-8
    assert np.max(np.abs(mt.var_p - vp_ref)) < 1e-8
    shift = math.pi / aux.omega5
    ts = np.linspace(0.0, params.horizon - shift, 300)
    vx_a, vp_a = ck_ground_variances(spec, ts)
    vx_b, vp_b = ck_ground_variances(spec, ts + shift)
    g = spec.gamma
    assert np.max(np.abs(vx_b * np.exp(g * (ts + shift)) - vx_a * np.exp(g * ts))) < 1e-12
    assert np.max(np.abs(vp_b * np.exp(-g * (ts + shift)) - vp_a * np.exp(-g * ts))) < 1e-12


# -- criterion 4: rotating-wave error structure --------------------------------


def test_criterion_4_rwa_error_identities():
    for m, w in ((1.0, 1.0), (1.3, 0.9)):
        s = 0.05
        spec = DrivenSpec(m=m, omega=w, drive_strength=s, drive_frequency=w)
        ts = np.linspace(0.0, spec.horizon, 1500)
        exact = driven_moments_exact(spec, spec.ground_state(), ts)
        rwa = driven_moments_rwa(spec, 0j, ts)
        assert np.max(np.abs(exact.mean_x - rwa.mean_x)) < 1e-12
        p_err = np.abs(exact.mean_p - rwa.mean_p)
        predicted = (s / (2.0 * w)) * np.abs(np.sin(w * ts))
        assert np.max(np.abs(p_err - predicted)) < 1e-10

    off = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.05, drive_frequency=0.5)
    ts = np.linspace(0.0, off.horizon, 1000)
    exact = driven_moments_exact(off, off.ground_state(), ts)
    rwa = driven_moments_rwa(off, 0j, ts)
    assert np.max(np.abs(exact.mean_x - rwa.mean_x)) > 1e-3
    assert np.max(np.abs(exact.mean_p - rwa.mean_p)) > 1e-3


# -- criterion 5: canonical map determinant under random coefficients ---------


def _mixed_random_params(rng):
    w0 = rng.uniform(0.8, 1.5)
    m_kind = rng.integers(0, 2)
    m = {"kind": "exponential", "prefactor": float(rng.uniform(0.7, 1.5)),
         "rate": float(rng.uniform(-0.05, 0.05))} if m_kind \
        else float(rng.uniform(0.7, 1.5))
    omega = {"kind": "exponential", "prefactor": w0,
             "rate": float(rng.uniform(-0.03, 0.03))} if rng.integers(0, 2) \
        else w0

    def drive(max_amp):
        if rng.integers(0, 2):
            return {"kind": "cosine",
                    "amplitude": float(rng.uniform(-max_amp, max_amp)),
                    "angular_frequency": float(rng.uniform(0.3, 1.5)),
                    "phase": float(rng.uniform(0.0, TWO_PI))}
        return float(rng.uniform(-max_amp, max_amp))

    axp = drive(0.08)
    if isinstance(axp, float) and abs(axp) < 1e-3:
        axp = 0.05
    return QuadraticParams.from_dict({
        "m": m, "omega": omega, "alpha_x": drive(0.3), "alpha_p": drive(0.3),
        "alpha_xp": axp, "alpha_0": drive(0.2), "horizon": 10.0})


def test_criterion_5_unit_determinant_over_random_sets():
    rng = np.random.default_rng(2026)
    n_sets = 50
    for _ in range(n_sets):
        params = _mixed_random_params(rng)
        assert validate(params).ok
        sol = solve(params, n_samples=2000)
        # the data must exercise the a_xp coupling somewhere on the grid
        assert np.any(params.alpha_xp.value(sol.grid) != 0.0)
        c = sol.coeffs
        det = c.A * c.E - c.B * c.D
        assert np.max(np.abs(det - 1.0)) < 1e-9


# -- criterion 6: static/dynamic consistency -----------------------------------


def test_criterion_6_static_dynamic_frequency_agreement():
    sp = StaticParams(m=1.1, omega=1.3, alpha_x=0.15, alpha_p=-0.1,
                      alpha_xp=0.2, alpha_0=0.05)
    res = diag_branch_theta_p_zero(sp)
    omega_static = math.sqrt(res.Omega_sq)
    horizon = 10.0 * TWO_PI / omega_static
    params = QuadraticParams.from_dict({
        "m": sp.m, "omega": sp.omega, "alpha_x": sp.alpha_x,
        "alpha_p": sp.alpha_p, "alpha_xp": sp.alpha_xp, "alpha_0": sp.alpha_0,
        "horizon": horizon})
    sol = solve(params, n_samples=2000)

    # accumulated oscillation phase grows at exactly the static frequency
    phi_rate = sol.Phi[-1] / sol.grid[-1]
    assert abs(phi_rate - omega_static) < 1e-8 * omega_static

    # the map is periodic with the static period: identity after each cycle
    for k in range(1, 11):
        c = sol.coefficients_at(k * TWO_PI / omega_static)
        assert abs(c.A - 1.0) < 1e-8
        assert abs(c.B) < 1e-8
        assert abs(c.D) < 1e-8
        assert abs(c.E - 1.0) < 1e-8

    # both closed-form branches agree on the squared frequency
    rng = np.random.default_rng(4096)
    for _ in range(1000):
        m = rng.uniform(0.5, 2.0)
        w = rng.uniform(0.7, 1.8)
        axp = rng.uniform(-0.45, 0.45) * w / 2.0
        p = StaticParams(m=m, omega=w, alpha_x=rng.uniform(-1, 1),
                         alpha_p=rng.uniform(-1, 1), alpha_xp=axp)
        a = diag_branch_theta_p_zero(p).Omega_sq
        b = diag_branch_theta_x_zero(p).Omega_sq
        assert abs(a - b) <= 1e-12 * abs(a)


# -- criterion 7: auxiliary-equation residuals ---------------------------------


def test_criterion_7_residuals_on_scenarios_and_random_draws():
    cases = [
        DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                   drive_frequency=1.0).to_params(),
        DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                   drive_frequency=0.5).to_params(),
        CKSpec(m=1.0, omega=1.0, gamma=-0.25).to_params(),
        CKSpec(m=1.0, omega=1.0, gamma=0.25).to_params(),
    ]
    rng = np.random.default_rng(99)
    cases += [_mixed_random_params(rng) for _ in range(5)]
    for params in cases:
        sol = solve(params, n_samples=400)
        assert np.max(ermakov_residual(sol)) < 1e-8
        assert np.max(beta_ode_residual(sol)) < 1e-9
        assert np.max(sol.constraint_residual()) == 0.0


# -- criterion 8: oracle equivalence on fully time-dependent sets --------------


def _full_coverage_params(seed):
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(0.9, 1.4)
    horizon = 4.0 * math.pi / w0
    grid = np.linspace(-0.1, horizon + 0.1, 4001)
    m0 = rng.uniform(0.9, 1.3)
    m_rate = rng.uniform(-0.04, 0.04)
    w_amp = rng.uniform(0.05, 0.15) * w0
    w_freq = rng.uniform(0.3, 0.9)
    w_phase = rng.uniform(0.0, TWO_PI)
    params = QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": m0, "rate": m_rate},
        "omega": {"kind": "tabulated", "grid": list(grid),
                  "values": list(w0 + w_amp * np.cos(w_freq * grid + w_phase))},
        "alpha_x": {"kind": "cosine",
                    "amplitude": float(rng.uniform(0.05, 0.15)),
                    "angular_frequency": float(rng.uniform(0.4, 1.2)),
                    "phase": float(rng.uniform(0.0, TWO_PI))},
        "alpha_p": {"kind": "cosine",
                    "amplitude": float(rng.uniform(0.03, 0.10)),
                    "angular_frequency": float(rng.uniform(0.3, 1.0)),
                    "phase": float(rng.uniform(0.0, TWO_PI))},
        "alpha_xp": {"kind": "cosine",
                     "amplitude": float(rng.uniform(0.03, 0.06)),
                     "angular_frequency": float(rng.uniform(0.2, 0.8)),
                     "phase": float(rng.uniform(0.0, TWO_PI))},
        "alpha_0": float(rng.uniform(-0.2, 0.2)),
        "horizon": horizon})
    alpha = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
    return params, alpha


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_criterion_8_oracle_equivalence_full_coverage(seed):
    t0 = time.perf_counter()
    params, alpha = _full_coverage_params(seed)
    assert validate(params).ok
    m0, w0 = params.m.value(0.0), params.omega.value(0.0)

    sol = solve(params, n_samples=250)
    mt = sol.moments(coherent_moments(alpha, m0, w0, params.hbar))

    ops = build_operators(64, m0, w0, params.hbar)
    run = propagate_state(coherent_state(ops, alpha), params, sol.grid, ops)
    assert run.reliable

    for name in ("mean_x", "mean_p", "var_x", "var_p", "cov_xp"):
        ref = getattr(run.moments, name)
        got = getattr(mt, name)
        scale = float(np.max(np.abs(ref)))
        assert np.all(np.abs(got - ref) <= 1e-3 * np.abs(ref) + 1e-5 * scale), name

    assert time.perf_counter() - t0 < 30.0
