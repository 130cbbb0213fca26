"""Brute-force verification path: truncated number-basis matrices and direct
unitary stepping of the state vector.

Operators are built at a fixed reference scale (m_ref, omega_ref), so the
basis never changes during a run; all time dependence lives in the
Hamiltonian matrix. Propagation uses midpoint-Magnus steps, each applied
through a Hermitian eigendecomposition, which keeps the evolution unitary
to round-off. Truncation is policed by watching the population of the top
decile of levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .model import MomentState, MomentTrajectory, moment_series

DEFAULT_N = 64
MAX_N = 256
DEFAULT_DT_PERIODS = 1e-3
TRUNCATION_ALARM = 1e-8
NORM_DRIFT_ABORT = 1e-6
TAIL_MASS_WARN = 1e-12


@dataclass(frozen=True)
class FockOperators:
    """Dense position/momentum matrices in a truncated number basis."""

    n: int
    x: np.ndarray
    p: np.ndarray
    x2: np.ndarray
    p2: np.ndarray
    xp_anti: np.ndarray
    m_ref: float
    omega_ref: float
    hbar: float


def build_operators(n, m_ref, omega_ref, hbar=1.0):
    """Ladder-operator construction of x, p and their quadratic products."""
    if n < 4:
        raise DomainError(f"basis size must be at least 4, got {n}")
    if not (m_ref > 0.0 and omega_ref > 0.0 and hbar > 0.0):
        raise DomainError("reference scales must be positive")
    a = np.zeros((n, n))
    rng = np.arange(1, n)
    a[rng - 1, rng] = np.sqrt(rng)
    ad = a.T
    x_scale = math.sqrt(hbar / (2.0 * m_ref * omega_ref))
    p_scale = math.sqrt(hbar * m_ref * omega_ref / 2.0)
    x = x_scale * (a + ad)
    p = 1j * p_scale * (ad - a)
    return FockOperators(n=n, x=x, p=p, x2=x @ x, p2=(p @ p).real.astype(float),
                         xp_anti=x @ p + p @ x,
                         m_ref=m_ref, omega_ref=omega_ref, hbar=hbar)


def hamiltonian_matrix(params, ops, t):
    """Hamiltonian at time t in the truncated basis.

    Returns a real symmetric matrix whenever the momentum drive and the
    cross term vanish at t (x, x^2, p^2 all have real matrix elements), and
    a complex Hermitian one otherwise; eigendecomposition of the real case
    is substantially cheaper.
    """
    m = params.m.value(t)
    w = params.omega.value(t)
    h = ops.p2 / (2.0 * m) + 0.5 * m * w * w * ops.x2
    ax = params.alpha_x.value(t)
    if ax:
        h = h + ax * ops.x
    a0 = params.alpha_0.value(t)
    if a0:
        h = h + a0 * np.eye(ops.n)
    ap = params.alpha_p.value(t)
    axp = params.alpha_xp.value(t)
    if ap or axp:
        h = h.astype(complex)
        if ap:
            h += ap * ops.p
        if axp:
            h += axp * ops.xp_anti
    return h


def ground_state(ops):
    psi = np.zeros(ops.n, dtype=complex)
    psi[0] = 1.0
    return psi


def coherent_state(ops, amplitude):
    """Normalized coherent state, truncated; warns when the lost tail mass
    exceeds TAIL_MASS_WARN."""
    alpha = complex(amplitude)
    ns = np.arange(ops.n)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, ops.n)))))
    log_mag = ns * np.log(np.abs(alpha)) - 0.5 * log_fact if alpha != 0 else \
        np.where(ns == 0, 0.0, -np.inf)
    phase = np.exp(1j * ns * np.angle(alpha)) if alpha != 0 else np.ones(ops.n)
    coeff = np.exp(-0.5 * np.abs(alpha) ** 2 + log_mag) * phase
    tail = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    if tail > TAIL_MASS_WARN:
        warnings.warn(f"coherent state tail mass {tail:.3e} lost to truncation",
                      stacklevel=2)
    return coeff / np.linalg.norm(coeff)


def moments_from_state(psi, ops, t=0.0):
    """Means and central second moments of a normalized state."""

    def ev(op):
        return float(np.real(np.vdot(psi, op @ psi)))

    mean_x = ev(ops.x)
    mean_p = ev(ops.p)
    var_x = ev(ops.x2) - mean_x ** 2
    var_p = ev(ops.p2) - mean_p ** 2
    cov = 0.5 * ev(ops.xp_anti) - mean_x * mean_p
    return MomentState(t, mean_x, mean_p, var_x, var_p, cov)


@dataclass(frozen=True)
class OracleRun:
    """Sampled propagation results plus truncation diagnostics."""

    times: np.ndarray
    states: np.ndarray          # (n, samples) complex
    moments: MomentTrajectory
    norms: np.ndarray
    top_populations: np.ndarray
    max_top_population: float
    reliable: bool


def propagate_state(psi0, params, grid, ops, dt=None):
    """March psi with midpoint-Magnus steps and sample moments on grid.

    Steps land exactly on sample times (shortened final substep per
    segment). The run is flagged unreliable when the top-decile population
    ever exceeds TRUNCATION_ALARM; norm drift beyond NORM_DRIFT_ABORT
    aborts outright.
    """
    if ops.n > MAX_N:
        raise DomainError(f"basis size {ops.n} exceeds the supported {MAX_N}")
    if dt is None:
        dt = DEFAULT_DT_PERIODS * 2.0 * math.pi / ops.omega_ref
    if not (dt > 0.0):
        raise DomainError("dt must be positive")
    ts = np.asarray(grid, dtype=float)
    if ts[0] != 0.0:
        ts = np.concatenate(([0.0], ts))
    psi = np.array(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise DomainError("initial state must be normalized")

    # never an empty band, or small bases could not raise the alarm
    top_start = min(int(math.ceil(0.9 * ops.n)), ops.n - 1)
    hbar = params.hbar

    states = np.empty((ops.n, len(ts)), dtype=complex)
    norms = np.empty(len(ts))
    tops = np.empty(len(ts))
    mom = np.empty((5, len(ts)))

    def record(j, t):
        states[:, j] = psi
        norms[j] = np.linalg.norm(psi)
        tops[j] = float(np.sum(np.abs(psi[top_start:]) ** 2))
        if abs(norms[j] - 1.0) > NORM_DRIFT_ABORT:
            raise IntegrationError(
                f"norm drift {abs(norms[j] - 1.0):.3e} exceeds {NORM_DRIFT_ABORT:.0e}", t=t)
        st = moments_from_state(psi / norms[j], ops, t)
        mom[:, j] = st.mean_x, st.mean_p, st.var_x, st.var_p, st.cov_xp

    record(0, ts[0])
    t = ts[0]
    for j in range(1, len(ts)):
        target = ts[j]
        while t < target - 1e-15 * target:
            h = min(dt, target - t)
            hmat = hamiltonian_matrix(params, ops, t + 0.5 * h)
            evals, vecs = np.linalg.eigh(hmat)
            phases = np.exp(-1j * evals * h / hbar)
            psi = vecs @ (phases * (vecs.conj().T @ psi))
            t += h
        t = target
        record(j, t)

    moments = moment_series(ts, *mom)
    max_top = float(tops.max())
    return OracleRun(times=ts, states=states, moments=moments, norms=norms,
                     top_populations=tops, max_top_population=max_top,
                     reliable=max_top <= TRUNCATION_ALARM)
