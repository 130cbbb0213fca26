"""The general moment map against an independent Heisenberg-flow reference.

For a quadratic Hamiltonian the Heisenberg equations of the means close
exactly:

    d/dt (x, p) = [[2 a_xp, 1/m], [-m w^2, -2 a_xp]] (x, p) + (a_p, -a_x).

Their fundamental matrix is the map (A, B; D, E), and their solution from
(x0, p0) is the mean trajectory. The reference integrates the 6-state
system with scipy's DOP853 and reads nothing but ``TimeFunction.value``, so
it shares no code with the pipeline's Ermakov chain. The unit-determinant
check of criterion 5 cannot catch a wrong map (every factor has unit
determinant for any rho and Phi); this test can.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tdqho.model import MomentState
from tdqho.pipeline import solve

from test_acceptance import _full_coverage_params, _mixed_random_params

START = (0.3, -0.2)


def heisenberg_flow(params, times):
    """(fundamental matrix entries A, B, D, E; means x, p) at ``times``,
    starting from the identity and from START."""

    def rhs(t, y):
        m, w = params.m.value(t), params.omega.value(t)
        axp = params.alpha_xp.value(t)
        gen = np.array([[2.0 * axp, 1.0 / m], [-m * w * w, -2.0 * axp]])
        # columns: the two fundamental solutions and the means
        dy = gen @ y.reshape(2, 3)
        dy[:, 2] += (params.alpha_p.value(t), -params.alpha_x.value(t))
        return dy.ravel()

    y0 = np.array([[1.0, 0.0, START[0]], [0.0, 1.0, START[1]]]).ravel()
    ref = solve_ivp(rhs, (0.0, params.horizon), y0, method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-13)
    assert ref.success, ref.message
    a, b, x, d, e, p = ref.y
    return (a, b, d, e), (x, p)


def _criterion_5_sets(n):
    rng = np.random.default_rng(2026)
    return [_mixed_random_params(rng) for _ in range(n)]


@pytest.mark.parametrize("params", [
    *_criterion_5_sets(5), *(_full_coverage_params(s)[0] for s in (101, 202, 303))],
    ids=[*(f"criterion-5-set-{i}" for i in range(5)),
         *(f"criterion-8-seed-{s}" for s in (101, 202, 303))])
def test_moment_map_matches_heisenberg_flow(params):
    sol = solve(params, n_samples=400)
    ts = sol.grid
    (a, b, d, e), (x, p) = heisenberg_flow(params, ts)
    c = sol.coeffs
    for name, got, ref in zip("ABDE", (c.A, c.B, c.D, c.E), (a, b, d, e)):
        assert np.max(np.abs(got - ref)) < 1e-8, name
    mt = sol.moments_at(MomentState(0.0, *START, 1.0, 1.0, 0.0), ts)
    assert np.max(np.abs(mt.mean_x - x)) < 1e-8
    assert np.max(np.abs(mt.mean_p - p)) < 1e-8
