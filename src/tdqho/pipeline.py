"""End-to-end propagation of moments for the time-dependent quadratic model.

The chain: integrate, with the adaptive DOP853 solver of ``integrators``,
one 7-state auxiliary system that co-integrates the displacement pair
(beta_x, beta_x_dot) tracking the drives, the Ermakov scale (rho, rho_dot)
of the effective oscillator and the phase quadratures (Phi, X, Lambda),
with the scalar energy bias ell(t) in Lambda taken from the live
displacement; assemble the linear map (A, B, D, E) relating centered means
at time t to those at 0; then push first and second moments through that
map with ``model.propagate_moments``. Off-grid queries read the solve's
order-7 dense output. The map is built as a product of five 2x2
conjugation matrices (scaling, basis rotation, shear-scale, phase
rotation, inverse basis rotation), which keeps AE - BD = 1 to machine
precision by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, ValidityError
from .integrators import OdeSystem, integrate_adaptive
from .model import (MomentTrajectory, PropagatorCoefficients, _EffectiveOscillator,
                    _require_positive, propagate_moments, validate)
from .staticdiag import StaticParams, static_translation

PIPELINE_SAMPLES = 2000
PIPELINE_REL_TOL = 1e-12
PIPELINE_ABS_TOL = 1e-14


def _static_at(params, t):
    return StaticParams(
        m=params.m.value(t), omega=params.omega.value(t),
        alpha_x=params.alpha_x.value(t), alpha_p=params.alpha_p.value(t),
        alpha_xp=params.alpha_xp.value(t), alpha_0=params.alpha_0.value(t),
        hbar=params.hbar)


def default_grid(params, n_samples=PIPELINE_SAMPLES):
    return np.linspace(0.0, params.horizon, n_samples)


# -- fused auxiliary solve ---------------------------------------------------

# Layout of the co-integrated state
# (beta_x, beta_x_dot, rho, rho_dot, Phi, X, Lambda).
_BETA = slice(0, 2)
_ERMAKOV = slice(2, 7)


def _beta_p(m, axp, ap, bx, bxd):
    return m * (-bxd + 2.0 * axp * bx + ap)


def _beta_p_at(p, t, bx, bxd):
    return _beta_p(p.m.value(t), p.alpha_xp.value(t), p.alpha_p.value(t), bx, bxd)


@dataclass(frozen=True)
class BetaSolution:
    """Sampled displacement pair, a view of the fused auxiliary solution.

    beta_p is recovered algebraically from (beta_x, beta_x_dot), so the
    defining constraint beta_p = m(-beta_x_dot + 2 a_xp beta_x + a_p)
    holds exactly on the grid.
    """

    times: np.ndarray
    beta_x: np.ndarray
    beta_x_dot: np.ndarray
    beta_p: np.ndarray
    _params: object
    _dense: object

    def at(self, t):
        """(beta_x, beta_x_dot, beta_p) at arbitrary t, from dense output."""
        bx, bxd = self._dense(t)[_BETA]
        return bx, bxd, _beta_p_at(self._params, t, bx, bxd)

    def constraint_residual(self):
        """|beta_p - m(-beta_x_dot + 2 a_xp beta_x + a_p)| on the grid."""
        p = self._params
        ts = self.times
        predicted = p.m.value(ts) * (-self.beta_x_dot
                                     + 2.0 * p.alpha_xp.value(ts) * self.beta_x
                                     + p.alpha_p.value(ts))
        return np.abs(self.beta_p - predicted)


@dataclass(frozen=True)
class ErmakovSolution:
    """Sampled Ermakov scale rho with the three running phase integrals:
    Phi = int Omega, X = int a_xp, Lambda = int (a_0 + ell). A view of the
    fused auxiliary solution."""

    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    Phi: np.ndarray
    X: np.ndarray
    Lambda: np.ndarray
    _dense: object

    def at(self, t):
        """(rho, rho_dot, Phi, X, Lambda) at arbitrary t, from dense output."""
        return tuple(self._dense(t)[_ERMAKOV])

    @property
    def rho0(self):
        return self.rho[0]


def _solve_auxiliary(params, grid):
    """Integrate the displacement pair and the Ermakov equation as one system.

    The seven states are the second-order displacement equation
    (beta_x, beta_x_dot), the Ermakov equation (rho, rho_dot) for the scale
    of the effective oscillator, and the quadratures Phi = int 1/(m5 rho^2),
    X = int a_xp and Lambda = int (a_0 + ell), where the energy bias ell
    comes from the live displacement. Each right-hand-side call converts t
    and the state to Python floats once and evaluates every coefficient
    once; an overflow or a division by zero there is an IntegrationError at
    that t.

    Initial displacement comes from the translation of the frozen t = 0
    Hamiltonian; a SingularityError propagates if omega(0)^2 = 4 a_xp(0)^2.
    A ValidityError names the time and the constraint wherever rho,
    w + kappa or w^2 - kappa^2 stops being positive, on the grid or at any
    point the integrator evaluates. The grid is extended by 0 and T, as the
    integrator samples it. Returns (BetaSolution, ErmakovSolution) sharing
    one dense output, and the effective-oscillator tuple on the grid.
    """
    p = params
    grid = np.union1d(default_grid(p) if grid is None else grid, [0.0, p.horizon])
    bx0, bp0 = static_translation(_static_at(p, 0.0))
    bxd0 = 2.0 * p.alpha_xp.value(0.0) * bx0 + p.alpha_p.value(0.0) - bp0 / p.m.value(0.0)
    oscillator = _EffectiveOscillator(p)
    kernel = oscillator.at(grid)
    *_, m5_grid, _, w5sq_grid = kernel
    rho0 = 1.0 / math.sqrt(m5_grid[0] * math.sqrt(w5sq_grid[0]))

    def rhs(t, y):
        # on Python floats: numpy float64 scalar arithmetic made each call
        # about 40% slower, with the same results
        t = float(t)
        bx, bxd, rho, rho_dot, _, _, _ = y.tolist()
        if rho <= 0.0:
            _require_positive(rho, t, "rho > 0")
        try:
            (m, md, _, w, _, _, axp, axpd, ap, apd, ax, a0,
             _, _, m5, m5_log_dot, w5sq) = oscillator.at(t)
            mlog = md / m
            forcing = apd - ax / m + 2.0 * ap * axp + ap * mlog
            coeff = 2.0 * axpd - w * w + 4.0 * axp * axp + 2.0 * axp * mlog
            bp = _beta_p(m, axp, ap, bx, bxd)
            ell = bp * bp / (2.0 * m) + 0.5 * m * w * w * bx * bx \
                + ax * bx - ap * bp - 2.0 * axp * bx * bp
            return np.array([
                bxd, -mlog * bxd + coeff * bx + forcing,
                rho_dot, -m5_log_dot * rho_dot - w5sq * rho + 1.0 / (m5 * m5 * rho ** 3),
                1.0 / (m5 * rho * rho), axp, a0 + ell])
        except (OverflowError, ZeroDivisionError) as exc:
            # where numpy float64 would have gone inf or NaN
            raise IntegrationError(f"right-hand side failed: {exc}", t=t) from None

    system = OdeSystem(n=7, f=rhs, t_end=p.horizon)
    sol = integrate_adaptive(system, [bx0, bxd0, rho0, 0.0, 0.0, 0.0, 0.0],
                             PIPELINE_REL_TOL, PIPELINE_ABS_TOL, sample_times=grid)
    ts = sol.times
    bx, bxd, rho, rho_dot, phi, x, lam = sol.states
    _require_positive(rho, ts, "rho > 0")
    m, _, _, _, _, _, axp, _, ap, *_ = kernel
    beta = BetaSolution(times=ts, beta_x=bx, beta_x_dot=bxd,
                        beta_p=_beta_p(m, axp, ap, bx, bxd), _params=p, _dense=sol.dense)
    ermakov = ErmakovSolution(times=ts, rho=rho, rho_dot=rho_dot, Phi=phi, X=x,
                              Lambda=lam, _dense=sol.dense)
    return beta, ermakov, kernel


def solve_beta(params, grid=None):
    """Displacement pair on [0, T]: the BetaSolution half of the fused
    auxiliary solve."""
    return _solve_auxiliary(params, grid)[0]


def solve_ermakov(params, grid=None):
    """Ermakov scale and phase quadratures on [0, T]: the ErmakovSolution
    half of the fused auxiliary solve, which co-integrates the displacement
    pair that Lambda needs."""
    return _solve_auxiliary(params, grid)[1]


# -- propagator coefficients ------------------------------------------------


def _mat_mul(p, q):
    # 2x2 blocks with array entries
    return [[p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]],
            [p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]]]


def _rot(theta, metric):
    c, s = np.cos(theta), np.sin(theta)
    return [[c, s / metric], [-metric * s, c]]


def _assemble(params, eta0, rho0, start, kernel, states, ts, scalar=False):
    """Propagator coefficients at the 1-d times ts (as scalars if ``scalar``),
    from the effective-oscillator tuple and the states (beta_x, beta_x_dot,
    rho, rho_dot, Phi) there, and the displacement pair ``start`` at 0.

    Product of scaling by gamma, a pi/4 rotation in the metric
    eta = m(0) w(0), the Ermakov shear-scale, the rotation by the
    accumulated phase Phi, and the inverse pi/4 rotation.
    """
    bx_t, bxd_t, rho, rho_dot, phi = states
    m, _, _, w, _, _, axp, _, ap, *_, m5, _, _ = kernel
    g = np.sqrt(eta0 / (m * w))
    ones = np.ones_like(ts)

    a_d = [[g, 0.0 * ones], [0.0 * ones, 1.0 / g]]
    a_e = _rot(math.pi / 4.0, eta0)
    a_f = [[rho / rho0, 0.0 * ones], [m5 * rho_dot / rho0, rho0 / rho]]
    a_7 = _rot(phi, 1.0 / rho0 ** 2)
    a_e_inv = _rot(-math.pi / 4.0, eta0)

    mat = _mat_mul(a_d, _mat_mul(a_e, _mat_mul(a_f, _mat_mul(a_7, a_e_inv))))

    def out(v):
        v = np.asarray(v, dtype=float) + 0.0 * ones
        return float(v[0]) if scalar else v

    bx0, bxd0 = start
    return PropagatorCoefficients(
        t=out(ts), A=out(mat[0][0]), B=out(mat[0][1]),
        D=out(mat[1][0]), E=out(mat[1][1]),
        beta_x_t=out(bx_t), beta_p_t=out(_beta_p(m, axp, ap, bx_t, bxd_t)),
        beta_x_0=float(bx0), beta_p_0=float(_beta_p_at(params, 0.0, bx0, bxd0)))


def coefficients(params, beta, ermakov, t):
    """Propagator coefficients at time(s) t, read off the dense output:
    scalars for a scalar t, else arrays."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    # beta and ermakov view one dense output: evaluate it once, at 0 and ts
    states = beta._dense(np.concatenate(([0.0], ts)))
    oscillator = _EffectiveOscillator(params)
    return _assemble(params, oscillator.eta0, ermakov.rho0, states[_BETA, 0],
                     oscillator.at(ts), states[:5, 1:], ts, scalar=np.ndim(t) == 0)


# -- moments ----------------------------------------------------------------


def global_phase(ermakov, t, hbar=1.0):
    """Accumulated scalar phase -Lambda(t)/hbar."""
    lam = ermakov.at(t)[4]
    return -lam / hbar


def gaussian_density(state, x_grid):
    """Normal position density of a Gaussian state on x_grid.

    A MomentState gives one row; a MomentTrajectory gives the
    (len(times), len(x_grid)) block, equal bit for bit to the stacked rows
    of its states. A variance that is not positive (NaN included) is a
    ValidityError at the first such time.
    """
    trajectory = isinstance(state, MomentTrajectory)
    mean_x, var_x = state.mean_x, state.var_x
    bad = np.flatnonzero(~(np.asarray(var_x) > 0.0))
    if bad.size:
        t = state.times[bad[0]] if trajectory else state.t
        raise ValidityError("position variance must be positive for a density",
                            t=float(t), constraint="var_x > 0")
    if trajectory:
        mean_x, var_x = mean_x[:, None], var_x[:, None]
    x = np.asarray(x_grid, dtype=float)
    return np.exp(-((x - mean_x) ** 2) / (2.0 * var_x)) \
        / np.sqrt(2.0 * math.pi * var_x)


# -- one-call pipeline -------------------------------------------------------


@dataclass(frozen=True)
class PipelineSolution:
    """Everything one run produces, sampled on a shared grid."""

    params: object
    grid: np.ndarray
    beta: BetaSolution
    ermakov: ErmakovSolution
    coeffs: PropagatorCoefficients

    def coefficients_at(self, t):
        return coefficients(self.params, self.beta, self.ermakov, t)

    def moments(self, initial):
        return propagate_moments(initial, self.coeffs)

    def moments_at(self, initial, t):
        return propagate_moments(initial, self.coefficients_at(t))

    def global_phase(self, t=None):
        ts = self.grid if t is None else t
        return global_phase(self.ermakov, ts, self.params.hbar)


def solve(params, n_samples=PIPELINE_SAMPLES):
    """Run the full chain on a uniform grid and return a PipelineSolution."""
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples}")
    validate(params).raise_if_invalid()
    grid = default_grid(params, n_samples)
    beta, ermakov, kernel = _solve_auxiliary(params, grid)
    # from the solve's own samples and kernel tuple: no second pass on the grid
    coeffs = _assemble(params, _EffectiveOscillator(params).eta0, ermakov.rho0,
                       (beta.beta_x[0], beta.beta_x_dot[0]), kernel,
                       (beta.beta_x, beta.beta_x_dot, ermakov.rho, ermakov.rho_dot,
                        ermakov.Phi), grid)
    return PipelineSolution(params=params, grid=grid, beta=beta,
                            ermakov=ermakov, coeffs=coeffs)


# -- independent residual checks --------------------------------------------


def ermakov_residual(params, ermakov):
    """Max Ermakov-equation residual, with the second derivative taken by a
    five-point central difference of the integrated rho_dot channel."""
    T = float(ermakov.times[-1])
    h = T / 4096.0
    tt = np.linspace(2.0 * h, T - 2.0 * h, 257)
    rho_dd = (-ermakov.at(tt + 2 * h)[1] + 8.0 * ermakov.at(tt + h)[1]
              - 8.0 * ermakov.at(tt - h)[1] + ermakov.at(tt - 2 * h)[1]) / (12.0 * h)
    rho, rho_dot, *_ = ermakov.at(tt)
    *_, m5, m5_log_dot, w5sq = _EffectiveOscillator(params).at(tt)
    res = rho_dd + m5_log_dot * rho_dot + w5sq * rho - 1.0 / (m5 * m5 * rho ** 3)
    return float(np.abs(res).max())


def beta_ode_residual(params, beta):
    """Max second-order displacement-equation residual via a five-point
    central difference of the integrated beta_x_dot channel."""
    T = float(beta.times[-1])
    h = T / 4096.0
    tt = np.linspace(2.0 * h, T - 2.0 * h, 257)
    bxdd = (-beta.at(tt + 2 * h)[1] + 8.0 * beta.at(tt + h)[1]
            - 8.0 * beta.at(tt - h)[1] + beta.at(tt - 2 * h)[1]) / (12.0 * h)
    bx, bxd, _ = beta.at(tt)
    m = params.m.value(tt)
    w = params.omega.value(tt)
    axp = params.alpha_xp.value(tt)
    ap = params.alpha_p.value(tt)
    mlog = params.m.derivative(tt) / m
    coeff = 2.0 * params.alpha_xp.derivative(tt) - w * w + 4.0 * axp * axp \
        + 2.0 * axp * mlog
    forcing = params.alpha_p.derivative(tt) - params.alpha_x.value(tt) / m \
        + 2.0 * ap * axp + ap * mlog
    res = bxdd + mlog * bxd - coeff * bx - forcing
    return float(np.abs(res).max())
