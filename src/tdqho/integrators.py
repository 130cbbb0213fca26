"""Explicit ODE integrators with dense sampling.

Two drivers over first-order real systems y' = f(t, y) on [0, T]:

* ``integrate_fixed_rk4``: classic fourth-order Runge-Kutta, stepping exactly
  onto every requested sample time.
* ``integrate_adaptive``: Dormand-Prince 5(4) embedded pair with PI step-size
  control and a fifth-order-accurate continuous extension, so samples (and
  later off-grid queries) are read off the interpolant instead of forcing
  steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
MAX_STEPS = 5_000_000

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# weights of the quintic continuous-extension term
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

# PI controller constants (standard fifth-order settings)
_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_FAC_SHRINK = 5.0   # step shrinks by at most this factor
_FAC_GROW = 10.0    # and grows by at most this factor


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
    max_error_estimate: float


class DenseOutput:
    """Piecewise-quintic continuous extension collected during an adaptive run."""

    def __init__(self, lefts, rights, rcont):
        self._lefts = np.asarray(lefts)
        self._rights = np.asarray(rights)
        self._rcont = rcont  # shape (segments, 5, n)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self._rights, t_arr, side="left"),
                      0, len(self._lefts) - 1)
        left = self._lefts[idx]
        theta = ((t_arr - left) / (self._rights[idx] - left))[:, None]
        r1, r2, r3, r4, r5 = np.moveaxis(self._rcont[idx], 1, 0)
        out = r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))
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
                           stats=IntegratorStats(nsteps, 0, 0.0))


def _as_array_f(f):
    """Accept any array-like right-hand side (tuples included)."""
    def wrapped(t, y):
        return np.asarray(f(t, y), dtype=float)
    return wrapped


def _initial_step(f, t0, y0, f0, t_end, rel_tol, abs_tol):
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / sc) ** 2)) if y0.size else 0.0
    d1 = np.sqrt(np.mean((f0 / sc) ** 2)) if y0.size else 0.0
    h0 = 1e-6 * t_end if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = (np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0) if y0.size else 0.0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * t_end, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_end - t0)


def integrate_adaptive(system, y0, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL,
                       sample_times=None):
    """Dormand-Prince 5(4) with PI control and a continuous extension.

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
    f = _as_array_f(system.f)
    t_end = system.t_end
    h_min = 1e-14 * t_end

    t = 0.0
    k1 = f(t, y)
    _check_finite(t, k1)
    h = _initial_step(f, t, y, k1, t_end, rel_tol, abs_tol)

    lefts, rights, rconts = [], [], []
    nsteps = 0
    nrejected = 0
    max_err = 0.0
    facold = 1e-4
    ks = np.empty((7, system.n))

    done = False
    while not done:
        if nsteps + nrejected > MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=t)
        if h < h_min:
            raise IntegrationError(
                f"step size underflow ({h:.3e} < {h_min:.3e})", t=t)
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t

        ks[0] = k1
        for i in range(1, 7):
            yi = y + h * (_A[i] @ ks[:i])
            ks[i] = f(t + _C[i] * h, yi)
        y_new = y + h * (_B5 @ ks)  # ks[6] was evaluated at y_new (FSAL)
        err_vec = h * (_E @ ks)

        sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec / sc) ** 2)) if system.n else 0.0
        if not np.isfinite(err):
            raise IntegrationError("non-finite error estimate", t=t)

        fac11 = err ** _EXPO1 if err > 0.0 else 0.0
        if err <= 1.0:
            # accept
            max_err = max(max_err, err)
            dy = y_new - y
            bspl = h * ks[0] - dy
            rconts.append(np.stack([
                y, dy, bspl, dy - h * ks[6] - bspl, h * (_D @ ks)]))
            lefts.append(t)
            rights.append(t + h)
            t = t_end if last else t + h
            done = last
            y = y_new
            k1 = ks[6].copy()
            _check_finite(t, y)
            nsteps += 1
            fac = fac11 / facold ** _BETA if err > 0.0 else 1.0 / _FAC_GROW
            fac = max(1.0 / _FAC_GROW, min(_FAC_SHRINK, fac / _SAFE))
            h = h / fac
            facold = max(err, 1e-4)
        else:
            nrejected += 1
            h = h / min(_FAC_SHRINK, fac11 / _SAFE)

    rights[-1] = t_end  # guard against roundoff at the final boundary
    dense = DenseOutput(lefts, rights, np.asarray(rconts))
    states = np.empty((system.n, len(ts)))
    states[:, 0] = np.asarray(y0, dtype=float)
    if len(ts) > 1:
        states[:, 1:] = dense(ts[1:])
    states[:, -1] = y
    return SampledSolution(times=ts, states=states,
                           stats=IntegratorStats(nsteps, nrejected, max_err),
                           dense=dense)
