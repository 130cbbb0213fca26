import math

import numpy as np
import pytest
from scipy.integrate import DOP853

from tdqho.errors import IntegrationError
from tdqho.integrators import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, OdeSystem,
                               integrate_adaptive, integrate_fixed_rk4)


def exponential_system(rate=1.0, t_end=2.0):
    return OdeSystem(n=1, f=lambda t, y: (rate * y[0],), t_end=t_end)


def harmonic_system(w=1.0, t_end=20.0):
    return OdeSystem(n=2, f=lambda t, y: (y[1], -w * w * y[0]), t_end=t_end)


def test_rk4_exponential_accuracy():
    sol = integrate_fixed_rk4(exponential_system(), (1.0,), 1e-3,
                              np.linspace(0.0, 2.0, 11))
    err = np.max(np.abs(sol.states[0] - np.exp(sol.times)))
    assert err < 1e-12


def test_rk4_fourth_order_convergence():
    # halving dt in the truncation-dominated regime shrinks the error ~16x
    samples = np.array([0.0, 2.0])
    errs = []
    for dt in (0.05, 0.025):
        sol = integrate_fixed_rk4(exponential_system(), (1.0,), dt, samples)
        errs.append(abs(sol.states[0, -1] - math.exp(2.0)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


def test_rk4_lands_exactly_on_samples():
    samples = np.array([0.0, 0.37, 1.0, 1.24])
    sol = integrate_fixed_rk4(exponential_system(rate=0.5, t_end=1.24),
                              (2.0,), 0.01, samples)
    assert np.array_equal(sol.times, samples)
    assert np.allclose(sol.states[0], 2.0 * np.exp(0.5 * samples), rtol=1e-10)


def test_adaptive_harmonic_accuracy_and_stats():
    sys_ = harmonic_system()
    samples = np.linspace(0.0, 20.0, 41)
    sol = integrate_adaptive(sys_, (1.0, 0.0), rel_tol=1e-10, abs_tol=1e-12,
                             sample_times=samples)
    err = np.max(np.abs(sol.states[0] - np.cos(sol.times)))
    assert err < 1e-8
    assert sol.stats.steps > 0
    assert sol.stats.rejected < sol.stats.steps


def test_adaptive_matches_fixed_step():
    sys_ = harmonic_system(w=2.0, t_end=5.0)
    samples = np.linspace(0.0, 5.0, 21)
    a = integrate_adaptive(sys_, (0.3, -0.1), rel_tol=1e-11, abs_tol=1e-13,
                           sample_times=samples)
    f = integrate_fixed_rk4(sys_, (0.3, -0.1), 2e-4, samples)
    assert np.max(np.abs(a.states - f.states)) < 1e-9


def test_adaptive_dense_output_between_samples():
    sys_ = harmonic_system(t_end=10.0)
    sol = integrate_adaptive(sys_, (1.0, 0.0), rel_tol=1e-10, abs_tol=1e-12,
                             sample_times=np.linspace(0.0, 10.0, 6))
    ts = np.linspace(0.0, 10.0, 137)
    dense = sol.dense(ts)
    assert np.max(np.abs(dense[0] - np.cos(ts))) < 1e-8
    assert np.max(np.abs(dense[1] + np.sin(ts))) < 1e-8


def scipy_steps(system, y0, rel_tol, abs_tol):
    """Each step's own scipy DOP853 interpolant, from a separate run."""
    solver = DOP853(system.f, 0.0, np.array(y0, dtype=float), system.t_end,
                    rtol=rel_tol, atol=abs_tol)
    steps = []
    while solver.status == "running":
        solver.step()
        steps.append(solver.dense_output())
    assert solver.status == "finished"
    return steps


def dense_reference(steps, t):
    """Per-sample loop calling the interpolant of the first step that ends at
    or after each time: the reference that the vectorised DenseOutput must
    reproduce bit for bit."""
    rights = np.array([s.t for s in steps])
    out = []
    for ti in np.atleast_1d(t):
        i = min(int(np.searchsorted(rights, ti, side="left")), len(steps) - 1)
        out.append(steps[i](ti))
    return np.array(out).T


def test_dense_output_array_matches_scalar_calls():
    sys_ = harmonic_system(t_end=10.0)
    sol = integrate_adaptive(sys_, (1.0, 0.0), sample_times=np.linspace(0.0, 10.0, 6))
    dense = sol.dense
    steps = scipy_steps(sys_, (1.0, 0.0), DEFAULT_REL_TOL, DEFAULT_ABS_TOL)
    assert len(steps) == sol.stats.steps
    # 0, T, every segment boundary, and points strictly inside segments
    bounds = [s.t_old for s in steps] + [s.t for s in steps]
    ts = np.sort(np.concatenate([bounds, np.linspace(0.0, 10.0, 101)]))
    assert ts[0] == 0.0 and ts[-1] == 10.0
    stacked = np.stack([dense(float(t)) for t in ts], axis=1)
    batched = dense(ts)
    assert batched.shape == (2, ts.size)
    assert np.array_equal(batched, stacked)
    assert np.array_equal(batched, dense_reference(steps, ts))
    assert dense(0.0).shape == (2,)


def test_adaptive_rejection_count_from_rhs_calls():
    # rejections are derived from scipy's RHS-call count: two start-up calls,
    # twelve per attempted step, three per dense output
    calls = 0

    def f(t, y):
        nonlocal calls
        calls += 1
        return (50.0 * math.cos(50.0 * t) * y[0],)

    sol = integrate_adaptive(OdeSystem(n=1, f=f, t_end=3.0), (1.0,), rel_tol=1e-12)
    steps, rejected = sol.stats.steps, sol.stats.rejected
    assert rejected > 0
    assert calls == 2 + 15 * steps + 12 * rejected


def test_adaptive_first_and_last_states_exact():
    sys_ = harmonic_system(t_end=3.0)
    samples = np.linspace(0.0, 3.0, 7)
    sol = integrate_adaptive(sys_, (0.7, 0.2), sample_times=samples)
    assert sol.states[0, 0] == 0.7
    assert sol.states[1, 0] == 0.2
    assert sol.times[-1] == 3.0


def test_adaptive_rejects_nonmonotonic_samples():
    sys_ = exponential_system()
    with pytest.raises(ValueError):
        integrate_adaptive(sys_, (1.0,), sample_times=np.array([0.0, 1.0, 0.5]))


def test_adaptive_step_underflow_raises():
    # derivative blows up at t = 1: forced failure inside the domain
    sys_ = OdeSystem(n=1, f=lambda t, y: (y[0] / (1.0 - t),), t_end=2.0)
    with pytest.raises(IntegrationError, match="underflow") as info:
        integrate_adaptive(sys_, (1.0,), sample_times=np.array([0.0, 2.0]))
    # raised just before the singularity, not after scipy's own 10-ulp floor
    assert 0.99 < info.value.t <= 1.0


@pytest.mark.parametrize("f, y0", [(lambda t, y: (math.nan,), 1.0),
                                    (lambda t, y: (1.0,), math.nan)])
def test_adaptive_nonfinite_start_raises(f, y0):
    # scipy alone would raise a ValueError for y0, and hang for f(0, y0)
    with pytest.raises(IntegrationError) as info:
        integrate_adaptive(OdeSystem(n=1, f=f, t_end=1.0), (y0,))
    assert info.value.t == 0.0


def test_fixed_step_nonfinite_aborts():
    sys_ = OdeSystem(n=1, f=lambda t, y: (y[0] ** 3,), t_end=10.0)
    with pytest.raises(IntegrationError), np.errstate(all="ignore"):
        integrate_fixed_rk4(sys_, (1.0,), 0.5, np.array([0.0, 10.0]))
