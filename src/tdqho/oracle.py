"""Brute-force verification path: truncated number-basis matrices and direct
unitary stepping of the state vector.

Operators are built at a fixed reference scale (m_ref, omega_ref), so the
basis never changes during a run; all time dependence lives in the
Hamiltonian's coefficients. H is a fixed combination of six operators: the
real p^2, x^2, x and I with coefficients 1/2m, m w^2/2, a_x, a_0, and the
imaginary parts of p and xp + px with a_p, a_xp, used only at steps where
either is nonzero. Propagation uses midpoint-Magnus steps. A run first lays
out its whole step schedule and evaluates each coefficient once over all
midpoints, then builds H for a bounded chunk of steps at a time with one
matrix product. Each step is applied to the state as a truncated Taylor
series of matrix-vector products, split into substeps of bounded norm
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)); the substep count
comes from the bound sum_k |c_k| ||O_k||_1 on ||H||_1, with the operator
norms taken once per run, and a step whose bound is not finite or asks for
more than MAX_SUBSTEPS substeps aborts the run. A real H stays real and
acts on the float view of the state, so one real product serves both of
its parts. Each series stops once its terms fall below double-precision
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
from .model import MomentState, moment_series

DEFAULT_N = 64
MAX_N = 256
DEFAULT_DT_PERIODS = 1e-3
TRUNCATION_ALARM = 1e-8
NORM_DRIFT_ABORT = 1e-6
TAIL_MASS_WARN = 1e-12
# Taylor stepping: substeps of 1-norm at most TAYLOR_THETA; a series ends at
# the first term from the TAYLOR_CHECK_FROM-th on whose squared norm is below
# TAYLOR_TERM_TOL_SQ (an absolute 1e-16 on a normalised state) and must do so
# within TAYLOR_MAX_TERMS terms.
TAYLOR_THETA = 2.0
TAYLOR_TERM_TOL_SQ = 1e-32
TAYLOR_MAX_TERMS = 40
TAYLOR_CHECK_FROM = 4
# A step whose norm bound asks for more substeps than this aborts the run: a
# finite but runaway Hamiltonian would otherwise step for hours.
MAX_SUBSTEPS = 500
# Hamiltonians are built this many doubles' worth of steps at a time (1 MiB
# real), so memory does not grow with the number of steps or with n.
HAMILTONIAN_CHUNK_DOUBLES = 2 ** 17


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


def _operator_stack(ops):
    """Fixed operators of H, flattened: the real stack (p2, x2, x, I), the
    imaginary parts of (p, xp_anti), and the 1-norms of all six.

    The matching coefficients are _coefficients' columns, so H at one time is
    ``real_coef @ real + 1j * imag_coef @ imag``; p and xp_anti are purely
    imaginary, and x, x2 and p2 purely real.
    """
    real = np.stack([ops.p2, ops.x2, ops.x, np.eye(ops.n)])
    imag = np.stack([ops.p.imag, ops.xp_anti.imag])
    norms = np.abs(np.concatenate([real, imag])).sum(axis=1).max(axis=1)
    return real.reshape(4, -1), imag.reshape(2, -1), norms


def _coefficients(params, ts):
    """(len(ts), 6) coefficients (1/2m, m w^2/2, a_x, a_0, a_p, a_xp) of the
    _operator_stack operators at the times ts; non-finite values pass
    through silently for the caller to report."""
    with np.errstate(all="ignore"):
        m = params.m.value(ts)
        w = params.omega.value(ts)
        return np.column_stack([1.0 / (2.0 * m), 0.5 * m * w * w,
                                params.alpha_x.value(ts), params.alpha_0.value(ts),
                                params.alpha_p.value(ts), params.alpha_xp.value(ts)])


def _hamiltonians(coef, real, imag, n):
    """H for each row of coef: a real (rows, n, n) stack, and a complex one
    when some row has a momentum drive or cross term, else None."""
    h = (coef[:, :4] @ real).reshape(-1, n, n)
    if not coef[:, 4:].any():
        return h, None
    return h, h + 1j * (coef[:, 4:] @ imag).reshape(-1, n, n)


def hamiltonian_matrix(params, ops, t):
    """Hamiltonian at time t in the truncated basis, built as propagate_state
    builds it for a step.

    Returns a real symmetric matrix whenever the momentum drive and the
    cross term vanish at t (x, x^2, p^2 all have real matrix elements), and
    a complex Hermitian one otherwise.
    """
    real, imag, _ = _operator_stack(ops)
    h, hc = _hamiltonians(_coefficients(params, np.array([float(t)])), real, imag, ops.n)
    return (h if hc is None else hc)[0]


def ground_state(ops):
    psi = np.zeros(ops.n, dtype=complex)
    psi[0] = 1.0
    return psi


def coherent_state(ops, amplitude):
    """Normalized coherent state, truncated; warns when the lost tail mass
    exceeds TAIL_MASS_WARN. An amplitude whose truncated weights have no
    positive finite norm (all of them underflow) is a DomainError."""
    alpha = complex(amplitude)
    ns = np.arange(ops.n)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, ops.n)))))
    log_mag = ns * np.log(np.abs(alpha)) - 0.5 * log_fact if alpha != 0 else \
        np.where(ns == 0, 0.0, -np.inf)
    phase = np.exp(1j * ns * np.angle(alpha)) if alpha != 0 else np.ones(ops.n)
    # a |alpha|^2 past the float range is inf, and every weight 0
    with np.errstate(over="ignore"):
        coeff = np.exp(-0.5 * np.abs(alpha) ** 2 + log_mag) * phase
    norm = np.linalg.norm(coeff)
    if not 0.0 < norm < math.inf:
        raise DomainError(f"coherent amplitude {amplitude} has no representable weight "
                          f"in a basis of n={ops.n} states")
    tail = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    if tail > TAIL_MASS_WARN:
        warnings.warn(f"coherent state tail mass {tail:.3e} lost to truncation",
                      stacklevel=2)
    return coeff / norm


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


def moments_from_state(psi, ops):
    """Means and central second moments of a normalized state, at t = 0."""
    return moment_series(0.0, *_expectations(np.asarray(psi), ops))


@dataclass(frozen=True)
class OracleRun:
    """Sampled propagation results plus truncation diagnostics."""

    states: np.ndarray          # (n, samples) complex
    moments: MomentState        # over the sample times moments.t
    norms: np.ndarray
    top_populations: np.ndarray
    max_top_population: float
    reliable: bool
    max_norm_drift: float       # worst |norm - 1| over the samples
    steps: int                  # midpoint steps over the whole run
    matvecs: int                # matrix-vector products over the whole run


def _taylor_step(hmat, psi, h_over_hbar, substeps, t):
    """exp(-i hmat h / hbar) psi and the number of matrix-vector products.

    The step is split into ``substeps`` equal substeps, each summed as a
    Taylor series in the substep matrix. A real hmat acts on the (n, 2) float
    view of psi as an (n, 1) complex column, one real product for both
    parts. Raises IntegrationError naming t if a series has not converged
    within TAYLOR_MAX_TERMS terms, which is how a non-finite state or
    Hamiltonian shows.
    """
    real = not np.iscomplexobj(hmat)
    if real:
        psi = psi.reshape(-1, 1)
    c = -1j * h_over_hbar / substeps
    matvecs = 0
    for _ in range(substeps):
        term = psi
        psi = psi.copy()
        for k in range(1, TAYLOR_MAX_TERMS + 1):
            term = hmat.dot(term.view(float)).view(complex) if real else hmat.dot(term)
            term *= c / k
            psi += term
            if k >= TAYLOR_CHECK_FROM and np.vdot(term, term).real < TAYLOR_TERM_TOL_SQ:
                break
        else:
            raise IntegrationError(
                f"Taylor series did not converge in {TAYLOR_MAX_TERMS} terms at t={t:.6g}",
                t=t)
        matvecs += k
    return psi.reshape(-1), matvecs


def _schedule(ts, dt):
    """Start times and widths of the midpoint steps, and for each sample
    after the first the number of steps taken by the time it is reached."""
    starts, widths, ends = [], [], []
    t = ts[0]
    for target in ts[1:]:
        while t < target - 1e-15 * target:
            h = min(dt, target - t)
            starts.append(t)
            widths.append(h)
            t += h
        t = target
        ends.append(len(starts))
    return np.array(starts), np.array(widths), ends


def propagate_state(psi0, params, grid, ops, dt=None):
    """March psi with midpoint-Magnus steps and sample moments on grid.

    ops must be built with params' hbar (else a DomainError naming both).
    The grid must be a non-empty 1-d array (else a DomainError naming its
    shape) that does not decrease and lies in [0, horizon] (repeats are
    allowed); a time outside that range, NaN included, or a decrease is a
    DomainError naming the time. Steps land exactly on sample times
    (shortened final step per segment).
    A step whose substep bound is not finite or exceeds MAX_SUBSTEPS raises
    IntegrationError naming its start time once the march reaches it, so
    an earlier sample's norm drift is reported first. The run is flagged
    unreliable when the top-decile population ever exceeds
    TRUNCATION_ALARM; norm drift beyond NORM_DRIFT_ABORT at any sample
    aborts outright. Moments of all samples are taken at once from the
    stored states.
    """
    if ops.n > MAX_N:
        raise DomainError(f"basis size {ops.n} exceeds the supported {MAX_N}")
    if ops.hbar != params.hbar:
        raise DomainError(f"operators' hbar {ops.hbar} is not the parameters' {params.hbar}")
    if dt is None:
        dt = DEFAULT_DT_PERIODS * 2.0 * math.pi / ops.omega_ref
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or not ts.size:
        raise DomainError(f"grid must be a non-empty 1-d array, got shape {ts.shape}")
    # the pipeline's rule for query times, so no state is labelled with a
    # time it was not stepped to
    outside = ~((ts >= 0.0) & (ts <= params.horizon))
    if outside.any():
        raise DomainError(f"t={ts[outside][0]} is outside [0, {params.horizon}]")
    back = np.flatnonzero(np.diff(ts) < 0.0)
    if back.size:
        raise DomainError(f"grid decreases from t={ts[back[0]]} to t={ts[back[0] + 1]}")
    if ts[0] != 0.0:
        ts = np.concatenate(([0.0], ts))
    psi = np.array(psi0, dtype=complex)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
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

    starts, widths, ends = _schedule(ts.tolist(), dt)
    coef = _coefficients(params, starts + 0.5 * widths)
    real, imag, op_norms = _operator_stack(ops)
    with np.errstate(all="ignore"):
        substeps = np.ceil(widths / hbar * (np.abs(coef) @ op_norms) / TAYLOR_THETA).tolist()
    h_over_hbar = (widths / hbar).tolist()
    complex_step = (coef[:, 4:] != 0.0).any(axis=1).tolist()
    starts = starts.tolist()
    chunk = max(1, HAMILTONIAN_CHUNK_DOUBLES // ops.n ** 2)

    record(0, ts[0])
    matvecs = 0
    begin = 0
    for j, end in enumerate(ends, start=1):
        for i in range(begin, end):
            if i % chunk == 0:
                hs, hcs = _hamiltonians(coef[i:i + chunk], real, imag, ops.n)
            s = substeps[i]
            if not s <= MAX_SUBSTEPS:
                what = "non-finite Hamiltonian" if not math.isfinite(s) else \
                    f"Hamiltonian norm bound asks for {s:.3g} substeps (at most {MAX_SUBSTEPS})"
                raise IntegrationError(f"{what} at t={starts[i]:.6g}", t=starts[i])
            hmat = hcs[i % chunk] if complex_step[i] else hs[i % chunk]
            psi, k = _taylor_step(hmat, psi, h_over_hbar[i], max(1, int(s)), starts[i])
            matvecs += k
        begin = end
        record(j, ts[j])

    moments = moment_series(ts, *_expectations(states / norms, ops))
    max_top = float(tops.max())
    return OracleRun(states=states, moments=moments, norms=norms,
                     top_populations=tops, max_top_population=max_top,
                     reliable=max_top <= TRUNCATION_ALARM,
                     max_norm_drift=float(np.max(np.abs(norms - 1.0))),
                     steps=len(starts), matvecs=matvecs)
