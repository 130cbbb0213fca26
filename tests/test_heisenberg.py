"""The general moment map against an independent Heisenberg-flow reference.

For a quadratic Hamiltonian the Heisenberg equations of the means close
exactly:

    d/dt (x, p) = [[2 a_xp, 1/m], [-m w^2, -2 a_xp]] (x, p) + (a_p, -a_x).

Their fundamental matrix is the map (A, B; D, E), and their solution from
(x0, p0) is the mean trajectory. The solution from (beta_x(0), -beta_p(0))
is the displacement (beta_x, -beta_p), and the Hamiltonian along it is the
integrand a_0 + ell of Lambda. The reference integrates the 9-state system
with scipy's DOP853 and reads nothing but ``TimeFunction.value`` and the
start beta(0), so it shares no code with the pipeline's Ermakov chain. The
unit-determinant check of criterion 5 cannot catch a wrong map (every
factor has unit determinant for any rho and Phi); this test can.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tdqho.model import MomentState, QuadraticParams
from tdqho.pipeline import solve

from test_acceptance import _full_coverage_params, _mixed_random_params

START = (0.3, -0.2)


def heisenberg_flow(params, times, beta_0):
    """(fundamental matrix entries A, B, D, E; means x, p; Lambda) at
    ``times``, starting from the identity, from START and, for Lambda, from
    the displacement beta_0 = (beta_x(0), beta_p(0))."""

    def rhs(t, y):
        m, w = params.m.value(t), params.omega.value(t)
        axp, ap, ax = (params.alpha_xp.value(t), params.alpha_p.value(t),
                       params.alpha_x.value(t))
        gen = np.array([[2.0 * axp, 1.0 / m], [-m * w * w, -2.0 * axp]])
        # columns: the two fundamental solutions, the means and (beta_x, -beta_p)
        dy = gen @ y[:8].reshape(2, 4)
        dy[:, 2:] += np.array([[ap], [-ax]])
        x, p = y[3], y[7]
        energy = (p * p / (2.0 * m) + 0.5 * m * w * w * x * x + ax * x + ap * p
                  + 2.0 * axp * x * p + params.alpha_0.value(t))
        return np.append(dy.ravel(), energy)

    y0 = np.array([1.0, 0.0, START[0], beta_0[0], 0.0, 1.0, START[1], -beta_0[1], 0.0])
    ref = solve_ivp(rhs, (0.0, params.horizon), y0, method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-13)
    assert ref.success, ref.message
    a, b, x, _, d, e, p, _, lam = ref.y
    return (a, b, d, e), (x, p), lam


def _criterion_5_sets(n):
    rng = np.random.default_rng(2026)
    return [_mixed_random_params(rng) for _ in range(n)]


def _check_against_heisenberg(params, n_samples):
    sol = solve(params, n_samples=n_samples)
    ts = sol.grid
    (a, b, d, e), (x, p), lam = heisenberg_flow(
        params, ts, (sol.coeffs.beta_x_t[0], sol.coeffs.beta_p_t[0]))
    c = sol.coeffs
    for name, got, ref in zip("ABDE", (c.A, c.B, c.D, c.E), (a, b, d, e)):
        assert np.max(np.abs(got - ref)) < 1e-8, name
    mt = sol.moments_at(MomentState(0.0, *START, 1.0, 1.0, 0.0), ts)
    assert np.max(np.abs(mt.mean_x - x)) < 1e-8
    assert np.max(np.abs(mt.mean_p - p)) < 1e-8
    assert np.max(np.abs(sol.at(sol.grid)[-1] - lam)) < 1e-8
    return sol


@pytest.mark.parametrize("params", [
    *_criterion_5_sets(5), *(_full_coverage_params(s)[0] for s in (101, 202, 303))],
    ids=[*(f"criterion-5-set-{i}" for i in range(5)),
         *(f"criterion-8-seed-{s}" for s in (101, 202, 303))])
def test_moment_map_matches_heisenberg_flow(params):
    _check_against_heisenberg(params, 400)


@pytest.mark.parametrize("n_samples", [2, 9])
@pytest.mark.parametrize("params", [_criterion_5_sets(1)[0], _full_coverage_params(303)[0]],
                         ids=["criterion-5-set-0", "criterion-8-seed-303"])
def test_coarse_sample_grids_match_heisenberg_flow(params, n_samples):
    # samples are partial steps off steps that do not depend on the grid
    _check_against_heisenberg(params, n_samples)


def test_refined_steps_match_heisenberg_flow():
    # omega grows twelvefold: steps sized by the phase at t = 0 are split
    # where the series' defect asks; with its split left out, the Ermakov
    # turn alone leaves this test failing
    params = QuadraticParams.from_dict({
        "m": 1.0, "omega": {"kind": "exponential", "prefactor": 1.0, "rate": 0.25},
        "alpha_x": {"kind": "cosine", "amplitude": 0.2, "angular_frequency": 2.0},
        "horizon": 10.0})
    steps = np.diff(_check_against_heisenberg(params, 400).edges)
    assert steps[-1] < steps[0] / 2.0


def test_phase_increases_strictly_on_criterion_5_sets():
    # Phi = unwrap(atan2(u2, u1)) is right only while every step turns by
    # less than pi; Phi' = 1/(m5 rho^2) > 0
    for params in _criterion_5_sets(50):
        sol = solve(params, n_samples=2000)
        assert np.all(np.diff(sol.Phi) > 0.0)
        assert np.all(np.diff(sol.phi) > 0.0)


ORDER_1_PROFILES = {
    "m": lambda t: 1.0 + 0.2 * np.sin(0.4 * t),
    "omega": lambda t: 1.1 + 0.15 * np.cos(0.5 * t + 0.3),
    "alpha_x": lambda t: 0.1 * np.cos(0.7 * t),
    "alpha_p": lambda t: 0.05 * np.cos(0.45 * t + 0.2),
    "alpha_xp": lambda t: 0.04 * np.cos(0.3 * t),
}


@pytest.mark.parametrize("key", sorted(ORDER_1_PROFILES))
def test_order_1_tables_match_heisenberg_flow(key):
    # a piecewise-linear profile has a kink at every knot; a Magnus step
    # across one is off by about 1e-5 on the map, so the knots are step edges
    knots = np.linspace(0.0, 10.0, 11)
    params = QuadraticParams.from_dict({
        "m": 1.0, "omega": 1.1, "horizon": 10.0,
        key: {"kind": "tabulated", "grid": list(knots),
              "values": list(ORDER_1_PROFILES[key](knots)), "order": 1}})
    edges = _check_against_heisenberg(params, 400).edges
    assert np.isin(knots, edges).all()


def _cosine_drives(angular_frequency):
    return QuadraticParams.from_dict({
        "m": 1.0, "omega": 1.0, "horizon": 10.0,
        "alpha_x": {"kind": "cosine", "amplitude": 0.5, "angular_frequency": angular_frequency},
        "alpha_p": {"kind": "cosine", "amplitude": 0.5,
                    "angular_frequency": 0.8 * angular_frequency}})


OMEGA_RAMP = QuadraticParams.from_dict({
    "m": 1.0, "alpha_x": 0.1, "horizon": 12.0,
    "omega": {"kind": "tabulated", "grid": [0.0, 6.0, 12.0], "values": [1.0, 8.0, 8.0],
              "order": 1}})


@pytest.mark.parametrize("params", [OMEGA_RAMP, _cosine_drives(15.0), _cosine_drives(25.0)],
                         ids=["omega-ramp-1-to-8", "drives-at-15", "drives-at-25"])
def test_dense_output_error_control_matches_heisenberg_flow(params):
    # samples are read off one quintic per step, and steps are split where
    # its defect asks: with that split left out, each of these cases fails
    _check_against_heisenberg(params, 400)


def _rough_order_3_table(key, n_knots):
    """An order-3 table of m or omega at knot values scattered within
    +-0.08 of its base, so that the spline's second derivative jumps at
    every knot, which the steps do not take as edges."""
    rng = np.random.default_rng(7)
    base = {"m": 1.0, "omega": 1.1}
    knots = np.linspace(0.0, 10.0, n_knots)
    return QuadraticParams.from_dict({
        **base, "alpha_x": 0.1, "horizon": 10.0,
        key: {"kind": "tabulated", "grid": list(knots),
              "values": list(base[key] + rng.uniform(-0.08, 0.08, n_knots)), "order": 3}})


@pytest.mark.parametrize("n_knots", [11, 41])
@pytest.mark.parametrize("key", ["m", "omega"])
def test_rough_order_3_tables_match_heisenberg_flow(key, n_knots):
    _check_against_heisenberg(_rough_order_3_table(key, n_knots), 400)


@pytest.mark.parametrize("params", [_criterion_5_sets(1)[0], OMEGA_RAMP],
                         ids=["criterion-5-set-0", "omega-ramp-1-to-8"])
def test_series_read_the_edge_states_and_join_at_the_edges(params):
    sol = solve(params, n_samples=9)
    (bx, bxd, rho, rho_dot, phi), kernel = sol._states(sol.edges)
    (bx_e, u1, u2, y_e, q1, q2), phi_e = sol.states, sol.phi
    m, m5 = kernel.m, kernel.m5
    # every edge is s = 0 of its own series, T of a constant one
    for got, ref in ((bx, bx_e), (bxd, y_e / m), (rho, np.hypot(u1, u2)),
                     (rho_dot, (u1 * q1 + u2 * q2) / (m5 * np.hypot(u1, u2))),
                     (phi, phi_e)):
        assert np.array_equal(got, ref)
    # s = 1 of each step's series is the next edge's state, to round-off
    linear = sol.states[:, 1:]
    ends = sol.series[..., :-1].sum(axis=0)
    assert np.max(np.abs(ends - linear) / np.maximum(1.0, np.abs(linear))) < 1e-14


@pytest.mark.parametrize("params", [_criterion_5_sets(1)[0], OMEGA_RAMP],
                         ids=["criterion-5-set-0", "omega-ramp-1-to-8"])
def test_phase_series_is_built_on_first_read_and_joins_at_the_edges(params):
    sol = solve(params, n_samples=9)
    init = MomentState(0.0, *START, 1.0, 1.0, 0.0)
    q = np.linspace(0.0, params.horizon, 7)
    sol.moments(init), sol.moments_at(init, q), sol.coefficients_at(q)
    assert "_phase_series" not in vars(sol)
    # every edge is s = 0 of its own series of Lambda, T of a zero one
    edge, series = sol._phase_series
    assert edge.shape == (sol.edges.size,) and series.shape == (5, sol.edges.size)
    assert np.array_equal(sol._lambda(sol.edges), edge)
    # s = 1 of each step's series is the next edge's value, to round-off
    ends = edge[:-1] + series[:, :-1].sum(axis=0)
    assert np.max(np.abs(ends - edge[1:]) / np.maximum(1.0, np.abs(edge[1:]))) < 1e-14
