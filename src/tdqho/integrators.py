"""Explicit ODE integrators with dense sampling.

Two drivers over first-order real systems y' = f(t, y) on [0, T]:

* ``integrate_fixed_rk4``: classic fourth-order Runge-Kutta, stepping exactly
  onto every requested sample time.
* ``integrate_adaptive``: scipy's DOP853, the explicit Runge-Kutta 8(5,3)
  pair of Hairer, Norsett & Wanner (Solving ODEs I, II.10), stepped one
  accepted step at a time. Each step's order-7 continuous extension is kept,
  so samples (and later off-grid queries) are read off the interpolant
  instead of forcing steps. Its digits follow the installed scipy version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853

from .errors import IntegrationError

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
MAX_STEPS = 5_000_000

# Right-hand-side calls made by scipy's DOP853 (checked against scipy 1.17):
# two at start-up (f(0, y0) and the initial-step probe), twelve per attempted
# step and three more per dense output. Rejections are derived from these.
_STARTUP_CALLS = 2
_CALLS_PER_ATTEMPT = 12
_CALLS_PER_DENSE = 3


@dataclass(frozen=True)
class OdeSystem:
    """First-order system y' = f(t, y) of dimension n on the domain [0, t_end]."""

    n: int
    f: callable
    t_end: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if not (self.t_end > 0.0):
            raise ValueError("domain end must be positive")


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int


class DenseOutput:
    """Piecewise order-7 continuous extension collected during an adaptive run.

    ``segments`` are the per-step scipy ``dense_output()`` interpolants; their
    fields are stacked once. Evaluation repeats the Horner order of scipy's
    ``Dop853DenseOutput._call_impl``, so each value matches the per-step
    interpolant bit for bit.
    """

    def __init__(self, segments):
        self._lefts = np.array([s.t_old for s in segments])
        self._rights = np.array([s.t for s in segments])
        self._h = np.array([s.h for s in segments])
        self._y_olds = np.array([s.y_old for s in segments])  # (segments, n)
        self._coeffs = np.array([s.F for s in segments])  # (segments, 7, n)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self._rights, t_arr, side="left"),
                      0, len(self._lefts) - 1)
        x = ((t_arr - self._lefts[idx]) / self._h[idx])[:, None]
        coeffs = self._coeffs[idx]
        out = np.zeros((t_arr.size, self._y_olds.shape[1]))
        for i in range(coeffs.shape[1]):
            out += coeffs[:, -1 - i]
            out *= x if i % 2 == 0 else 1 - x
        out += self._y_olds[idx]
        # (n,) for scalar t, (n, len(t)) otherwise, matching states layout
        return out[0] if np.ndim(t) == 0 else out.T


@dataclass(frozen=True)
class SampledSolution:
    """States sampled on a strictly increasing time grid including 0 and T.

    ``states`` has shape (n, len(times)). ``dense`` is the continuous
    extension when the adaptive driver produced one, else None.
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats
    dense: DenseOutput = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.times) < 2:
            raise IntegrationError("need at least two sample times")
        if not np.all(np.isfinite(self.states)):
            raise IntegrationError("non-finite entries in sampled states")


def _prepare_samples(system, sample_times):
    ts = np.asarray(sample_times, dtype=float)
    if ts.ndim != 1:
        raise ValueError("sample_times must be one-dimensional")
    if np.any(ts < 0.0) or np.any(ts > system.t_end * (1.0 + 1e-12)):
        raise ValueError("sample_times must lie inside the system domain")
    if ts.size > 1 and np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample_times must be strictly increasing")
    return np.union1d(ts, [0.0, system.t_end])


def _check_finite(t, y):
    if not np.all(np.isfinite(y)):
        raise IntegrationError("state became non-finite", t=t)


def integrate_fixed_rk4(system, y0, dt, sample_times):
    """Classic RK4 with nominal step dt, landing exactly on each sample time."""
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    ts = _prepare_samples(system, sample_times)
    y = np.array(y0, dtype=float)
    if y.shape != (system.n,):
        raise ValueError(f"y0 must have shape ({system.n},)")
    f = _as_array_f(system.f)
    states = np.empty((system.n, len(ts)))
    states[:, 0] = y
    t = ts[0]
    nsteps = 0
    for j in range(1, len(ts)):
        target = ts[j]
        while t < target:
            h = min(dt, target - t)
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            nsteps += 1
            _check_finite(t, y)
        t = target  # kill accumulated roundoff before next segment
        states[:, j] = y
    return SampledSolution(times=ts, states=states,
                           stats=IntegratorStats(nsteps, 0))


def _as_array_f(f):
    """Accept any array-like right-hand side (tuples included)."""
    def wrapped(t, y):
        return np.asarray(f(t, y), dtype=float)
    return wrapped


def integrate_adaptive(system, y0, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL,
                       sample_times=None):
    """scipy's DOP853 stepped to T, keeping every step's continuous extension.

    Samples are evaluated from the interpolant, never by forcing steps, so
    the step sequence is independent of the requested grid.
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    if sample_times is None:
        sample_times = [0.0, system.t_end]
    ts = _prepare_samples(system, sample_times)
    y = np.array(y0, dtype=float)
    if y.shape != (system.n,):
        raise ValueError(f"y0 must have shape ({system.n},)")
    h_min = 1e-14 * system.t_end

    # scipy raises a plain ValueError for a non-finite y0, and a non-finite
    # f(0, y0) leaves it a NaN step size that its step loop never escapes
    _check_finite(0.0, y)
    solver = DOP853(system.f, 0.0, y, system.t_end, rtol=rel_tol, atol=abs_tol)
    _check_finite(0.0, solver.f)

    segments = []
    nsteps = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(message, t=solver.t)
        _check_finite(solver.t, solver.y)
        nsteps += 1
        segments.append(solver.dense_output())
        # scipy would go on shrinking to 10 ulp; the final step is clipped to T
        if solver.status == "running" and solver.step_size < h_min:
            raise IntegrationError(
                f"step size underflow ({solver.step_size:.3e} < {h_min:.3e})",
                t=solver.t)
        attempts = (solver.nfev - _STARTUP_CALLS
                    - _CALLS_PER_DENSE * nsteps) // _CALLS_PER_ATTEMPT
        if attempts > MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=solver.t)

    dense = DenseOutput(segments)
    states = np.empty((system.n, len(ts)))
    states[:, 0] = y
    states[:, 1:] = dense(ts[1:])
    states[:, -1] = solver.y
    return SampledSolution(times=ts, states=states,
                           stats=IntegratorStats(nsteps, attempts - nsteps),
                           dense=dense)
