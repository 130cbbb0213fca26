"""Brute-force verification path: truncated number-basis matrices and direct
unitary stepping of the state vector.

Operators are built at a fixed reference scale (m_ref, omega_ref), so the
basis never changes during a run; all time dependence lives in the
Hamiltonian matrix. Propagation uses midpoint-Magnus steps, each applied
to the state as a truncated Taylor series of matrix-vector products, split
into substeps of bounded norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)). Each series stops once its terms fall below double-precision
round-off, so the evolution is unitary only to that level: the norm is
checked at every sample and a drift beyond NORM_DRIFT_ABORT aborts the
run. Truncation is policed by watching the population of the top decile of
levels.
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
# Taylor stepping: substeps of 1-norm at most TAYLOR_THETA; a series ends at
# the first term whose squared norm is below TAYLOR_TERM_TOL_SQ (an absolute
# 1e-16 on a normalised state) and must do so within TAYLOR_MAX_TERMS terms.
TAYLOR_THETA = 2.0
TAYLOR_TERM_TOL_SQ = 1e-32
TAYLOR_MAX_TERMS = 40


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
    if n > MAX_N:
        raise DomainError(f"basis size {n} exceeds the supported {MAX_N}")
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
    a complex Hermitian one otherwise; the real case is cheaper to build
    and to take the norm of.
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


def _expectations(psi, ops):
    """Means and central second moments of normalized state(s): ``psi`` is
    one state (n,) or a stack of states (n, samples); each moment has the
    shape of ``psi`` without its first axis."""

    def ev(op):
        return np.einsum("i...,ij,j...->...", psi.conj(), op, psi, optimize=True).real

    mean_x = ev(ops.x)
    mean_p = ev(ops.p)
    return (mean_x, mean_p, ev(ops.x2) - mean_x ** 2, ev(ops.p2) - mean_p ** 2,
            0.5 * ev(ops.xp_anti) - mean_x * mean_p)


def moments_from_state(psi, ops, t=0.0):
    """Means and central second moments of a normalized state."""
    return moment_series(t, *_expectations(np.asarray(psi), ops))


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
    max_norm_drift: float       # worst |norm - 1| over the samples
    matvecs: int                # matrix-vector products over the whole run


def _taylor_step(hmat, psi, h_over_hbar, t):
    """exp(-i hmat h / hbar) psi and the number of matrix-vector products.

    The step is split into s = ceil(||hmat h / hbar||_1 / TAYLOR_THETA)
    equal substeps, each summed as a Taylor series in the substep matrix.
    Raises IntegrationError naming t if a series has not converged within
    TAYLOR_MAX_TERMS terms, which is how a non-finite state shows.
    """
    norm = h_over_hbar * float(np.abs(hmat).sum(axis=0).max())
    if not math.isfinite(norm):
        raise IntegrationError(f"non-finite Hamiltonian at t={t:.6g}", t=t)
    substeps = max(1, math.ceil(norm / TAYLOR_THETA))
    # one complex cast per step; the factor -i h / (hbar s k) scales vectors
    a = np.asarray(hmat, dtype=complex)
    c = -1j * h_over_hbar / substeps
    matvecs = 0
    for _ in range(substeps):
        term = psi
        psi = psi.copy()
        for k in range(1, TAYLOR_MAX_TERMS + 1):
            term = a.dot(term)
            term *= c / k
            psi += term
            if np.vdot(term, term).real < TAYLOR_TERM_TOL_SQ:
                break
        else:
            raise IntegrationError(
                f"Taylor series did not converge in {TAYLOR_MAX_TERMS} terms at t={t:.6g}",
                t=t)
        matvecs += k
    return psi, matvecs


def propagate_state(psi0, params, grid, ops, dt=None):
    """March psi with midpoint-Magnus steps and sample moments on grid.

    Steps land exactly on sample times (shortened final substep per
    segment). The run is flagged unreliable when the top-decile population
    ever exceeds TRUNCATION_ALARM; norm drift beyond NORM_DRIFT_ABORT at
    any sample aborts outright. Moments of all samples are taken at once
    from the stored states.
    """
    if ops.n > MAX_N:
        raise DomainError(f"basis size {ops.n} exceeds the supported {MAX_N}")
    if dt is None:
        dt = DEFAULT_DT_PERIODS * 2.0 * math.pi / ops.omega_ref
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be positive and finite, got {dt}")
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

    def record(j, t):
        states[:, j] = psi
        norms[j] = np.linalg.norm(psi)
        tops[j] = float(np.sum(np.abs(psi[top_start:]) ** 2))
        if abs(norms[j] - 1.0) > NORM_DRIFT_ABORT:
            raise IntegrationError(
                f"norm drift {abs(norms[j] - 1.0):.3e} exceeds {NORM_DRIFT_ABORT:.0e} "
                f"at t={t:.6g}", t=t)

    record(0, ts[0])
    t = ts[0]
    matvecs = 0
    for j in range(1, len(ts)):
        target = ts[j]
        while t < target - 1e-15 * target:
            h = min(dt, target - t)
            psi, k = _taylor_step(hamiltonian_matrix(params, ops, t + 0.5 * h),
                                  psi, h / hbar, t)
            matvecs += k
            t += h
        t = target
        record(j, t)

    moments = moment_series(ts, *_expectations(states / norms, ops))
    max_top = float(tops.max())
    return OracleRun(times=ts, states=states, moments=moments, norms=norms,
                     top_populations=tops, max_top_population=max_top,
                     reliable=max_top <= TRUNCATION_ALARM,
                     max_norm_drift=float(np.max(np.abs(norms - 1.0))),
                     matvecs=matvecs)
