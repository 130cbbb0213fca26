import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from tdqho.errors import DomainError, IntegrationError, SingularityError, ValidityError
from tdqho.model import (MomentState, MomentTrajectory, QuadraticParams,
                         _EffectiveOscillator, effective_m5_omega5,
                         ground_moments, validate)
from tdqho.timefunc import Constant, Cosine, Exponential, Polynomial, Tabulated
from tdqho import pipeline
from tdqho.pipeline import (_expm, _scan, beta_ode_residual, ermakov_residual,
                            gaussian_density, solve, solve_beta, solve_ermakov)
from tdqho.scenarios import DrivenSpec, driven_beta

from test_heisenberg import OMEGA_RAMP, _criterion_5_sets


def standard_params(horizon=4.0 * math.pi, **kw):
    return QuadraticParams.from_dict({"m": 1.0, "omega": 1.0,
                                      "horizon": horizon, **kw})


def generic_params(horizon=8.0):
    """Fully time-dependent coefficients, all validity constraints holding."""
    grid = np.linspace(-0.1, horizon + 0.1, 4001)
    return QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.2, "rate": 0.03},
        "omega": {"kind": "tabulated", "grid": list(grid),
                  "values": list(1.1 + 0.15 * np.cos(0.5 * grid + 0.3))},
        "alpha_x": {"kind": "cosine", "amplitude": 0.08,
                    "angular_frequency": 0.7},
        "alpha_p": {"kind": "cosine", "amplitude": 0.05,
                    "angular_frequency": 0.45, "phase": 0.2},
        "alpha_xp": {"kind": "cosine", "amplitude": 0.04,
                     "angular_frequency": 0.3},
        "horizon": horizon})


@pytest.fixture(scope="module")
def standard_solution():
    return solve(standard_params(), n_samples=400)


@pytest.fixture(scope="module")
def generic_solution():
    return solve(generic_params(), n_samples=400)


# -- bare oscillator ground truth ---------------------------------------------


def test_standard_oscillator_coefficients(standard_solution):
    s = standard_solution
    ts = s.grid
    assert np.max(np.abs(s.coeffs.A - np.cos(ts))) < 1e-12
    assert np.max(np.abs(s.coeffs.B - np.sin(ts))) < 1e-12
    assert np.max(np.abs(s.coeffs.D + np.sin(ts))) < 1e-12
    assert np.max(np.abs(s.coeffs.E - np.cos(ts))) < 1e-12


def test_identity_at_time_zero(generic_solution):
    c = generic_solution.coefficients_at(0.0)
    assert (c.A, c.B, c.D, c.E) == (1.0, 0.0, 0.0, 1.0)


def test_unit_determinant(generic_solution):
    c = generic_solution.coeffs
    det = c.A * c.E - c.B * c.D
    assert np.max(np.abs(det - 1.0)) < 1e-13


def test_standard_phase_is_elapsed_time(standard_solution):
    s = standard_solution
    assert np.max(np.abs(s.ermakov.Phi - s.grid)) < 1e-12
    assert np.max(np.abs(s.ermakov.rho - 1.0)) < 1e-13


def test_coherent_motion_on_standard_oscillator(standard_solution):
    s = standard_solution
    init = MomentState(0.0, 0.7, -0.4, 0.5, 0.5, 0.0)
    mt = s.moments(init)
    ts = s.grid
    assert np.max(np.abs(mt.mean_x - (0.7 * np.cos(ts) - 0.4 * np.sin(ts)))) < 1e-12
    assert np.max(np.abs(mt.mean_p - (-0.7 * np.sin(ts) - 0.4 * np.cos(ts)))) < 1e-12
    assert np.max(np.abs(mt.var_x - 0.5)) < 1e-12
    assert np.max(np.abs(mt.cov_xp)) < 1e-12


def test_ground_state_is_stationary(standard_solution):
    mt = standard_solution.moments(ground_moments(1.0, 1.0, 1.0))
    assert np.max(np.abs(mt.mean_x)) < 1e-13
    assert np.max(np.abs(mt.var_x - 0.5)) < 1e-13
    assert np.max(np.abs(mt.uncertainty_product() - 0.25)) < 1e-13


def test_constant_energy_offset_only_shifts_phase():
    for hbar in (1.0, 0.7):
        p = standard_params(horizon=5.0, alpha_0=0.3, hbar=hbar)
        s = solve(p, n_samples=100)
        # an explicit grid and the default both read hbar off the solution
        for phase in (s.global_phase(s.grid), s.global_phase()):
            assert np.max(np.abs(phase + 0.3 * s.grid / hbar)) < 1e-12
        assert np.max(np.abs(s.ermakov.Lambda - 0.3 * s.grid)) < 1e-12
        mt = s.moments(ground_moments(1.0, 1.0, hbar))
        assert np.max(np.abs(mt.mean_x)) < 1e-13


@pytest.mark.parametrize("spec", [
    DrivenSpec(m=1.3, omega=0.9, drive_strength=0.2, drive_frequency=0.9),
    DrivenSpec(m=0.8, omega=1.1, drive_strength=1.0, drive_frequency=0.6)],
    ids=["resonant", "off-resonant"])
def test_lambda_matches_driven_closed_form(spec):
    # Lambda = int (a_0 + ell), with ell the Hamiltonian at (beta_x, -beta_p)
    # of the closed-form displacement pair; a_0 = 0 here
    def ell(t):
        bx, bp = driven_beta(spec, t)
        ax = spec.drive_strength * math.cos(spec.drive_frequency * t)
        return bp * bp / (2.0 * spec.m) + 0.5 * spec.m * spec.omega ** 2 * bx * bx + ax * bx

    sol = solve(spec.to_params(), n_samples=200)
    pieces = [quad(ell, a, b, epsabs=1e-13, epsrel=1e-13)[0]
              for a, b in zip(sol.grid[:-1], sol.grid[1:])]
    expected = np.concatenate(([0.0], np.cumsum(pieces)))
    assert np.max(np.abs(expected)) > 1.0
    assert np.max(np.abs(sol.ermakov.Lambda - expected)) < 1e-8
    assert np.max(np.abs(sol.global_phase() + expected / spec.hbar)) < 1e-8
    # off the grid: the grid value plus the rest of the sample interval
    q = np.random.default_rng(5).uniform(0.0, sol.grid[-1], 64)
    i = np.searchsorted(sol.grid, q) - 1
    expected = expected[i] + [quad(ell, a, b, epsabs=1e-13, epsrel=1e-13)[0]
                              for a, b in zip(sol.grid[i], q)]
    assert np.max(np.abs(sol.global_phase(q) + expected / spec.hbar)) < 1e-8


def test_lambda_of_a_quartic_energy_offset_is_its_antiderivative():
    # no drives leave ell = 0, and the degree-5 series of each step holds a
    # quartic a_0's antiderivative exactly
    coefficients = [0.3, -0.2, 0.05, 0.01, -0.0007]
    p = standard_params(horizon=10.0, alpha_0={"kind": "polynomial",
                                               "coefficients": coefficients})
    sol = solve(p, n_samples=2000)
    q = np.random.default_rng(11).uniform(0.0, 10.0, 256)
    antiderivative = np.polynomial.polynomial.polyint(coefficients)
    for t, lam in ((sol.grid, sol.ermakov.Lambda), (q, sol.ermakov.at(q)[-1])):
        exact = np.polynomial.polynomial.polyval(t, antiderivative)
        assert np.max(np.abs(lam - exact) / np.maximum(1.0, np.abs(exact))) < 1e-12


# -- residual diagnostics -----------------------------------------------------


def test_ermakov_residual_generic(generic_solution):
    res = ermakov_residual(generic_solution.ermakov)
    assert np.max(res) < 1e-8


def test_beta_residual_generic(generic_solution):
    res = beta_ode_residual(generic_solution.beta)
    assert np.max(res) < 1e-9


def test_beta_constraint_residual_is_exact(generic_solution):
    assert np.max(generic_solution.beta.constraint_residual()) == 0.0


def test_residuals_on_standard_oscillator(standard_solution):
    assert np.max(ermakov_residual(standard_solution.ermakov)) < 1e-8
    assert np.max(beta_ode_residual(standard_solution.beta)) < 1e-9


@pytest.mark.parametrize("key, base", [("omega", 1.1), ("m", 1.0), ("alpha_x", 0.0)])
def test_residuals_skip_stencils_across_order_1_knots(key, base):
    # second derivatives jump at the 11 knots; a five-point stencil across
    # one would read the jump as a residual
    knots = np.arange(11.0)
    table = {"kind": "tabulated", "grid": list(knots), "order": 1,
             "values": list(base + 0.08 * np.cos(1.3 * knots + 0.4))}
    p = standard_params(horizon=10.0, **{key: table})
    sol = solve(p, n_samples=400)
    assert ermakov_residual(sol.ermakov) < 1e-8
    assert beta_ode_residual(sol.beta) < 1e-9


def test_residuals_are_nan_when_every_stencil_crosses_a_knot():
    # knots closer than the four-step stencil span leave no point to check
    knots = np.linspace(0.0, 10.0, 1201)
    p = standard_params(horizon=10.0, alpha_x={
        "kind": "tabulated", "grid": list(knots), "order": 1,
        "values": list(0.08 * np.cos(1.3 * knots))})
    sol = solve(p, n_samples=100)
    assert math.isnan(ermakov_residual(sol.ermakov))
    assert math.isnan(beta_ode_residual(sol.beta))


# -- generic case against direct moment integration ---------------------------


def classical_moment_reference(params, init, grid):
    """First and second moments from their closed ODE system."""
    def rhs(t, y):
        x, p, vx, vp, cv = y
        m = params.m.value(t)
        w2 = params.omega.value(t) ** 2
        ax = params.alpha_x.value(t)
        ap = params.alpha_p.value(t)
        axp = params.alpha_xp.value(t)
        return np.array([
            2.0 * axp * x + p / m + ap,
            -m * w2 * x - 2.0 * axp * p - ax,
            2.0 * (2.0 * axp * vx + cv / m),
            2.0 * (-m * w2 * cv - 2.0 * axp * vp),
            -m * w2 * vx + vp / m,
        ])

    y0 = (init.mean_x, init.mean_p, init.var_x, init.var_p, init.cov_xp)
    ref = solve_ivp(rhs, (0.0, params.horizon), y0, method="DOP853",
                    t_eval=grid, rtol=1e-12, atol=1e-14)
    assert ref.success, ref.message
    return ref.y


def test_generic_case_matches_direct_integration(generic_solution):
    params = generic_params()
    init = MomentState(0.0, 0.4, -0.3, 0.7, 0.5, 0.2)
    mt = generic_solution.moments(init)
    ref = classical_moment_reference(params, init, generic_solution.grid)
    assert np.max(np.abs(mt.mean_x - ref[0])) < 1e-10
    assert np.max(np.abs(mt.mean_p - ref[1])) < 1e-10
    assert np.max(np.abs(mt.var_x - ref[2])) < 1e-10
    assert np.max(np.abs(mt.var_p - ref[3])) < 1e-10
    assert np.max(np.abs(mt.cov_xp - ref[4])) < 1e-10


def test_uncertainty_product_preserved_for_pure_state(generic_solution):
    # det 1 linear maps keep var_x var_p - cov^2 invariant
    init = ground_moments(1.2, generic_params().omega.value(0.0), 1.0)
    mt = generic_solution.moments(init)
    assert np.max(np.abs(mt.uncertainty_product()
                         - init.uncertainty_product())) < 1e-13


# -- scale-equation invariant -------------------------------------------------


def lewis_invariant(params, sol, traj_times, x, p):
    rho, rho_dot, _, _ = sol.ermakov.at(traj_times)
    m5 = np.array([effective_m5_omega5(params, float(t))[0] for t in traj_times])
    return 0.5 * ((rho * p - m5 * rho_dot * x) ** 2 + (x / rho) ** 2)


def test_invariant_constant_along_effective_trajectories(generic_solution):
    # classical trajectories of the auxiliary (m5, omega5) oscillator keep
    # the quadratic invariant built from the scale function constant
    params = generic_params()

    def rhs(t, y):
        m5, w5sq = effective_m5_omega5(params, t)
        return np.array([y[1] / m5, -m5 * w5sq * y[0]])

    ts = np.linspace(0.0, params.horizon, 160)
    for x0, p0 in ((1.0, 0.0), (0.3, -0.8), (-0.5, 0.4)):
        traj = solve_ivp(rhs, (0.0, params.horizon), (x0, p0), method="DOP853",
                         t_eval=ts, rtol=1e-12, atol=1e-14)
        assert traj.success, traj.message
        inv = lewis_invariant(params, generic_solution, traj.t, traj.y[0], traj.y[1])
        assert np.max(np.abs(inv - inv[0])) < 1e-8 * max(inv[0], 1.0)


def test_invariant_on_standard_oscillator_columns(standard_solution):
    # for the bare oscillator the (A, D) propagator column is itself a
    # classical trajectory, so the invariant is constant on it
    s = standard_solution
    inv = lewis_invariant(standard_params(), s, s.grid, s.coeffs.A, s.coeffs.D)
    assert np.max(np.abs(inv - 0.5)) < 1e-12


# -- quadratures and phases ---------------------------------------------------


def _check_energy_quadrature(p, exact):
    # no drives leave ell = 0, so Lambda = int a_0: on the grid and at 256
    # times off it against its exact integral
    sol = solve(p, n_samples=300)
    q = np.random.default_rng(5).uniform(0.0, p.horizon, 256)
    for t, lam in ((sol.grid, sol.ermakov.Lambda), (q, sol.ermakov.at(q)[-1])):
        assert np.max(np.abs(lam - exact(t))) < 1e-12


def test_energy_quadrature_of_a_cosine():
    amp, w, phi = 0.15, 0.7, 0.4
    p = standard_params(horizon=10.0, alpha_0={
        "kind": "cosine", "amplitude": amp, "angular_frequency": w, "phase": phi})
    _check_energy_quadrature(p, lambda t: amp / w * (np.sin(w * t + phi) - math.sin(phi)))


def test_energy_quadrature_of_an_order_1_table():
    # the exact integral of the linear pieces: whole trapezoids up to the
    # knot below t, then the part of the next one; the knots are step edges
    knots, values = np.array([0.0, 1.5, 4.0, 7.0, 10.0]), np.array([0.1, -0.2, 0.05, 0.2, -0.1])
    p = standard_params(horizon=10.0, alpha_0={
        "kind": "tabulated", "grid": list(knots), "values": list(values), "order": 1})
    slopes = np.diff(values) / np.diff(knots)
    whole = np.concatenate(([0.0], np.cumsum(np.diff(knots) * (values[:-1] + values[1:]) / 2.0)))

    def exact(t):
        k = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
        tau = t - knots[k]
        return whole[k] + tau * (values[k] + 0.5 * slopes[k] * tau)

    _check_energy_quadrature(p, exact)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 65, 1000])
def test_scan_matches_sequential_running_product(n):
    # step maps like the solve's: traceless exponents [[a, b], [c, -a]], b > 0 > c,
    # with forcing (f, g), for both rows
    rng = np.random.default_rng(n)
    h = 0.2
    a = h * rng.uniform(-0.05, 0.05, (2, n))
    b, c = h * rng.uniform(0.5, 1.5, (2, 2, n)) * np.array([1.0, -1.0])[:, None, None]
    f, g = h * rng.uniform(-1.0, 1.0, (2, 2, n))
    maps = np.empty((2, 3, 2, n + 1))
    maps[..., 0] = np.eye(2, 3)[..., None]
    _expm((a, b, c, f, g), maps[..., 1:])
    expected = np.empty_like(maps)
    for row in range(2):
        total = np.eye(3)
        for k in range(n + 1):
            total = np.vstack((maps[:, :, row, k], [0.0, 0.0, 1.0])) @ total
            expected[:, :, row, k] = total[:2]
    got = _scan(maps)
    assert got is maps
    assert (maps[..., 0] == np.eye(2, 3)[..., None]).all()
    scale = np.abs(expected).max(axis=(0, 1))
    assert (np.abs(maps - expected).max(axis=(0, 1)) <= 1e-13 * scale).all()


def test_global_phase_starts_at_zero(generic_solution):
    phase = generic_solution.global_phase()
    assert phase[0] == 0.0
    assert phase.shape == generic_solution.grid.shape


# -- moments api ---------------------------------------------------------------


def test_moments_at_matches_trajectory(generic_solution):
    init = MomentState(0.0, 0.4, -0.3, 0.7, 0.5, 0.2)
    mt = generic_solution.moments(init)
    i = 137
    t = float(generic_solution.grid[i])
    st = generic_solution.moments_at(init, t)
    assert st.mean_x == pytest.approx(mt.mean_x[i], rel=1e-12, abs=1e-12)
    assert st.var_p == pytest.approx(mt.var_p[i], rel=1e-12, abs=1e-12)
    assert st.t == t


def test_unsorted_and_repeated_queries_read_as_sorted(generic_solution):
    sol = generic_solution
    horizon = sol.params.horizon
    rng = np.random.default_rng(11)
    t = np.sort(np.concatenate(([0.0, 0.0, horizon, horizon], sol.grid[[7, 7, 200]],
                                rng.uniform(0.0, horizon, 60))))
    perm = rng.permutation(t.size)
    init = MomentState(0.0, 0.4, -0.3, 0.7, 0.5, 0.2)
    for query in (sol.coefficients_at, lambda t: sol.moments_at(init, t)):
        ordered, shuffled = query(t), query(t[perm])
        for f in dataclasses.fields(ordered):
            value = np.asarray(getattr(ordered, f.name))
            want = value[perm] if value.ndim else value
            assert np.asarray(getattr(shuffled, f.name)).tobytes() == want.tobytes(), f.name


@pytest.mark.parametrize("t, named", [
    (-0.5, "-0.5"), (10.000001, "10.000001"), (14.0, "14.0"), (30.0, "30.0"),
    (math.nan, "nan"), (np.array([2.0, 14.0, 20.0]), "14.0")])
def test_queries_outside_the_horizon_are_domain_errors(t, named):
    # a clamped step index would take one unchecked Magnus step of any
    # length: A(30) read 7.9e22 where the Heisenberg flow gives -0.436
    p = QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.0, "rate": 0.04},
        "omega": {"kind": "polynomial", "coefficients": [1.2, 0.01]},
        "alpha_xp": 0.03, "horizon": 10.0})
    sol = solve(p, n_samples=50)
    init = ground_moments(1.0, 1.2, 1.0)
    for query in (sol.coefficients_at, lambda t: sol.moments_at(init, t),
                  sol.beta.at, sol.ermakov.at, sol.global_phase):
        with pytest.raises(DomainError, match=re.escape(f"t={named} is outside [0, 10.0]")):
            query(t)
    with pytest.raises(DomainError, match=re.escape(f"t={named} is outside [0, 10.0]")):
        solve_beta(p, np.append(np.linspace(0.0, 10.0, 5), t))
    # the ends of the horizon stay in range
    assert sol.coefficients_at(np.array([0.0, 10.0])).t.tolist() == [0.0, 10.0]


def test_empty_query_gives_empty_results_and_2d_query_is_domain_error(generic_solution):
    sol = generic_solution
    init = MomentState(0.0, 0.4, -0.3, 0.7, 0.5, 0.2)
    empty = np.array([])
    c = sol.coefficients_at(empty)
    assert c.t.shape == c.A.shape == c.E.shape == c.beta_p_t.shape == (0,)
    mt = sol.moments_at(init, empty)
    assert mt.times.shape == mt.mean_x.shape == mt.cov_xp.shape == (0,)
    assert sol.global_phase(empty).shape == (0,)
    for query in (sol.coefficients_at, lambda t: sol.moments_at(init, t), sol.global_phase):
        with pytest.raises(DomainError, match=re.escape("got shape (2, 3)")):
            query(sol.grid[:6].reshape(2, 3))


def test_grid_past_the_horizon_is_checked_before_the_kernel():
    # omega = 1.2 - 0.1 t turns negative at t = 12, past the horizon: the
    # range error comes first, not the validity failure at a time outside it
    p = QuadraticParams.from_dict({
        "m": 1.0, "omega": {"kind": "polynomial", "coefficients": [1.2, -0.1]},
        "horizon": 10.0})
    with pytest.raises(DomainError, match=re.escape("t=12.0 is outside [0, 10.0]")):
        solve_beta(p, np.linspace(0.0, 14.0, 8))


def test_grid_that_is_not_1d_is_a_domain_error():
    # before np.concatenate, whose ValueError would not name the grid
    with pytest.raises(DomainError, match=re.escape("got shape (2, 2)")):
        solve_beta(standard_params(), np.ones((2, 2)))


def test_trajectory_state_accessor(standard_solution):
    mt = standard_solution.moments(ground_moments(1.0, 1.0, 1.0))
    st = mt.state(10)
    assert isinstance(st, MomentState)
    assert st.t == standard_solution.grid[10]


# -- density -------------------------------------------------------------------


def test_gaussian_density_normalization():
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    st = MomentState(0.0, 0.3, -0.2, 0.4, 0.7, 0.1)
    xs = np.linspace(-8.0, 8.0, 4001)
    rho = gaussian_density(st, xs)
    total = trapezoid(rho, xs)
    mean = trapezoid(xs * rho, xs)
    var = trapezoid((xs - mean) ** 2 * rho, xs)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert mean == pytest.approx(0.3, abs=1e-10)
    assert var == pytest.approx(0.4, abs=1e-8)


def test_gaussian_density_rejects_collapsed_state():
    st = MomentState(0.0, 0.0, 0.0, -1e-3, 0.5, 0.0)
    with pytest.raises(ValidityError):
        gaussian_density(st, np.linspace(-1.0, 1.0, 11))


def test_gaussian_density_block_equals_stacked_states(generic_solution):
    mt = generic_solution.moments(ground_moments(1.0, 1.0, 1.0))
    xs = np.linspace(-4.0, 4.0, 37)
    block = gaussian_density(mt, xs)
    assert block.shape == (len(mt.times), 37)
    stacked = np.stack([gaussian_density(mt.state(i), xs)
                        for i in range(len(mt.times))])
    assert np.array_equal(block, stacked)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan])
def test_gaussian_density_block_names_first_bad_time(bad):
    times = np.linspace(0.0, 1.0, 6)
    var_x = np.full(6, 0.5)
    var_x[[2, 4]] = bad
    ones = np.ones(6)
    mt = MomentTrajectory(times, 0.0 * ones, 0.0 * ones, var_x, 0.5 * ones, 0.0 * ones)
    with pytest.raises(ValidityError) as info:
        gaussian_density(mt, np.linspace(-1.0, 1.0, 11))
    assert info.value.t == times[2]
    assert info.value.constraint == "var_x > 0"


# -- failure modes -------------------------------------------------------------


def test_solve_rejects_invalid_horizon_dynamics():
    with pytest.raises(ValidityError):
        solve(standard_params(alpha_xp=-0.6))


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_solve_rejects_fewer_than_two_samples(n_samples):
    with pytest.raises(DomainError, match="n_samples"):
        solve(standard_params(), n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [2.5, math.nan, 400.0, True])
def test_solve_rejects_a_sample_count_that_is_not_an_integer(n_samples):
    with pytest.raises(DomainError, match=f"must be an integer of at least 2, got {n_samples}"):
        solve(standard_params(), n_samples=n_samples)


def test_solve_propagates_initial_singularity():
    grid = np.linspace(-0.1, 2.1, 301)
    # omega(0)^2 = 4 alpha_xp(0)^2 exactly at t = 0
    p = QuadraticParams.from_dict({
        "m": 1.0,
        "omega": {"kind": "tabulated", "grid": list(grid),
                  "values": list(1.0 + 0.5 * grid)},
        "alpha_xp": 0.5,
        "horizon": 2.0})
    with pytest.raises((SingularityError, ValidityError)):
        solve(p)


def test_auxiliary_rhs_checks_effective_frequency_between_grid_points():
    # kappa = 2 a_xp peaks at 1.6 > omega at t = 2, yet w^2 - kappa^2 > 0 at
    # both points of the two-point grid: only the right-hand side sees it
    p = standard_params(horizon=4.0, alpha_xp={
        "kind": "cosine", "amplitude": 0.8, "angular_frequency": math.pi / 4.0,
        "phase": -math.pi / 2.0})
    with pytest.raises(ValidityError) as info:
        solve_ermakov(p, grid=np.array([0.0, 4.0]))
    assert info.value.constraint == "omega^2 - kappa^2 > 0"
    assert 0.0 < info.value.t < 4.0


def test_auxiliary_solve_starts_at_zero_on_any_grid():
    # rho(0) comes from m5 and w5^2 at t = 0, also when the grid starts later
    p = generic_params()
    full = solve(p).ermakov
    late = solve_ermakov(p, grid=np.linspace(1.0, 5.0, 9))
    assert late.times[0] == 0.0 and late.times[-1] == p.horizon
    assert late.rho[0] == full.rho[0]
    assert late.at(3.0) == full.at(3.0)


def test_shifted_frequency_failure_is_named_alike_everywhere():
    # kappa = 2 a_xp dips to -1.6 at t = 2, so omega + kappa < 0 on
    # (0.86, 3.14), while both points of the grid [0, 4] are admissible
    p = standard_params(horizon=4.0, alpha_xp={
        "kind": "cosine", "amplitude": 0.8, "angular_frequency": math.pi / 4.0,
        "phase": math.pi / 2.0})
    constraint = "omega + kappa > 0"
    assert validate(p).failures[0][0] == constraint
    with pytest.raises(ValidityError) as grid_check:
        solve_ermakov(p, grid=np.linspace(0.0, 4.0, 5))
    assert (grid_check.value.constraint, grid_check.value.t) == (constraint, 1.0)
    with pytest.raises(ValidityError) as rhs_check:
        solve_ermakov(p, grid=np.array([0.0, 4.0]))
    assert rhs_check.value.constraint == constraint
    assert 0.85 < rhs_check.value.t < 3.15


def _m5_stub(monkeypatch, bad, after):
    """Replace m5 by ``bad`` in every effective-oscillator tuple at times
    past ``after``."""
    real_at = _EffectiveOscillator.at

    def at(self, t):
        out = real_at(self, t)
        return out[:14] + (np.where(np.asarray(t) > after, bad, out[14]),) + out[15:]

    monkeypatch.setattr(_EffectiveOscillator, "at", at)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_kernel_is_integration_error_at_its_time(monkeypatch, bad):
    # the first Gauss node past t = 1 names the failure
    _m5_stub(monkeypatch, bad, after=1.0)
    with pytest.raises(IntegrationError) as info:
        solve(standard_params())
    assert 1.0 < info.value.t < 1.1
    assert "non-finite" in str(info.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_displacement_is_integration_error_at_its_time():
    # a resonant drive of amplitude 1e307 grows beta_x past the float range
    # near t = 36, long after the first steps
    p = standard_params(horizon=60.0, alpha_x={
        "kind": "cosine", "amplitude": 1e307, "angular_frequency": 1.0})
    with pytest.raises(IntegrationError) as info:
        solve(p, n_samples=100)
    assert 30.0 < info.value.t < 40.0
    assert "non-finite auxiliary state" in str(info.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_lambda_is_integration_error_when_built():
    # Lambda = 1e306 t passes the float range at t = 179.8; the solve does
    # not read it, and the first global phase names the step where it does
    sol = solve(standard_params(horizon=200.0, alpha_0=1e306), n_samples=100)
    with pytest.raises(IntegrationError) as info:
        sol.global_phase(1.0)
    assert 179.7 < info.value.t < 179.8
    assert "non-finite auxiliary state" in str(info.value)


def test_refinement_that_does_not_settle_is_integration_error(monkeypatch):
    # the ramp's first steps, sized by omega(0) = 1, are too long once omega grows
    monkeypatch.setattr(pipeline, "_MAX_REFINEMENTS", 0)
    with pytest.raises(IntegrationError, match="did not settle") as info:
        solve(OMEGA_RAMP)
    assert 0.0 <= info.value.t <= 12.0


def test_more_steps_than_the_cap_is_integration_error(monkeypatch):
    monkeypatch.setattr(pipeline, "_MAX_STEPS", 100)
    with pytest.raises(IntegrationError, match="more than 100 Magnus steps"):
        solve(OMEGA_RAMP)


def _turn_and_defect(flow):
    """Per accepted step, the Ermakov row's turn and the series' error
    estimate, recomputed from the step edges."""
    h = np.diff(flow.edges)
    nodes = flow._step(flow.edges[:-1], h)
    a, b, c, _, _ = pipeline._magnus(nodes, h)
    return np.sqrt(np.abs(a[1] ** 2 + b[1] * c[1])), flow._defect(nodes)


@pytest.mark.parametrize("params", [_criterion_5_sets(1)[0], OMEGA_RAMP],
                         ids=["criterion-5-set-0", "omega-ramp-1-to-8"])
def test_accepted_steps_keep_the_turn_and_defect_bounds(params):
    turn, defect = _turn_and_defect(solve(params, n_samples=9).beta._flow)
    assert np.max(turn) <= pipeline._MAX_ROTATION
    assert np.max(defect) <= pipeline.MAGNUS_TOL


def test_turn_bound_alone_keeps_the_phase_unwrapped(monkeypatch):
    # first steps turning by 2 rad with the defect left out: only the turn
    # bound splits them, as far as np.unwrap of Phi needs
    monkeypatch.setattr(pipeline, "_FIRST_ROTATION", 2.0)
    monkeypatch.setattr(pipeline, "MAGNUS_TOL", math.inf)
    flow = solve(OMEGA_RAMP, n_samples=9).beta._flow
    turn, _ = _turn_and_defect(flow)
    assert 0.25 < np.max(turn) <= pipeline._MAX_ROTATION
    assert np.all(np.diff(flow.phi) > 0.0)


def test_solve_takes_six_array_jets_on_its_grid(monkeypatch):
    sizes, scalars = [], []
    for cls in (Constant, Cosine, Exponential, Polynomial, Tabulated):
        def counted(self, t, jet=cls.jet):
            if np.ndim(t):
                sizes.append(np.size(t))
            else:
                scalars.append(t)
            return jet(self, t)
        monkeypatch.setattr(cls, "jet", counted)
    p = standard_params(horizon=10.0, alpha_x={
        "kind": "cosine", "amplitude": 0.2, "angular_frequency": 0.9})
    sol = solve(p, n_samples=2000)
    # validate takes m, omega and alpha_xp on its grid; the kernel all six,
    # once on the grid, once on the Gauss nodes of the steps and once on the
    # step edges for the series that the 2000 samples are read off
    steps = sol.beta._flow.edges.size - 1
    assert sorted(sizes) == sorted([2000] * 6 + [3 * steps] * 6 + [steps + 1] * 6 + [4096] * 3)
    # the only scalar jets are m(0) and omega(0) for eta0; the other t = 0
    # values come from the kernel on the grid
    assert scalars == [0.0, 0.0]
    scalars.clear()
    sol.coefficients_at(3.7)
    sol.coefficients_at(np.array([1.0, 2.5]))
    assert scalars == []
    # the global phase takes only the phase series' build: one pass over the
    # five Gauss nodes of every step
    sizes.clear()
    sol.global_phase()
    assert sizes == [5 * steps] * 6
    # later queries, at new times too, read the built series: no jets at all
    sizes.clear()
    sol.global_phase(np.linspace(0.05, 9.95, 37))
    sol.global_phase(2.5)
    assert sizes == [] and scalars == []


# -- unit determinant over random admissible profiles ---------------------------


def _drive(max_amp):
    constant = st.floats(-max_amp, max_amp)
    cosine = st.fixed_dictionaries({
        "kind": st.just("cosine"), "amplitude": st.floats(-max_amp, max_amp),
        "angular_frequency": st.floats(0.3, 1.5), "phase": st.floats(0.0, 2.0 * math.pi)})
    return st.one_of(constant, cosine)


def _level(lo, hi, max_rate):
    exponential = st.fixed_dictionaries({
        "kind": st.just("exponential"), "prefactor": st.floats(lo, hi),
        "rate": st.floats(-max_rate, max_rate)})
    return st.one_of(st.floats(lo, hi), exponential)


@settings(max_examples=10, deadline=None)
@given(st.fixed_dictionaries({
    "m": _level(0.7, 1.5, 0.05), "omega": _level(0.8, 1.5, 0.03),
    "alpha_x": _drive(0.3), "alpha_p": _drive(0.3), "alpha_xp": _drive(0.08),
    "alpha_0": _drive(0.2), "horizon": st.just(10.0)}),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16))
def test_coefficients_keep_unit_determinant_over_random_profiles(config, times):
    # the profile ranges of acceptance criterion 5, which are all admissible
    params = QuadraticParams.from_dict(config)
    assert validate(params).ok
    sol = solve(params, n_samples=200)
    for c in (sol.coeffs, sol.coefficients_at(np.array(times))):
        assert np.max(np.abs(c.A * c.E - c.B * c.D - 1.0)) < 1e-9


# -- the README example ---------------------------------------------------------


def test_readme_python_example_runs_and_gives_scalars_at_a_scalar_time(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    names = {}
    exec(block, names)
    state, coeffs = names["st"], names["c"]
    for obj in (state, coeffs):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            assert isinstance(value, float) and np.ndim(value) == 0, f.name
    assert coeffs.t == state.t == 13.7
    # the example prints the determinant, which is 1
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(1.0, abs=1e-12)
