"""End-to-end propagation of moments for the time-dependent quadratic model.

The chain: solve the auxiliary problems as two linear systems, the affine
displacement pair (beta_x, m beta_x') tracking the drives and the Ermakov
partner (u, m5 u') of the effective oscillator; read the Ermakov scale
(rho, rho_dot) and the phase Phi off two solutions of the partner by Pinney
superposition, and take the quadrature X = int a_xp by a Gauss rule and
Lambda = int (a_0 + ell), with the energy bias ell(t) from the
displacement, as one series per step, the integral of the degree-4
interpolant through five Gauss nodes of the step (the continuous extension
of the 5-node Gauss rule; Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, sec. II.6); assemble the linear map
(A, B, D, E) relating centered means at time t to those at 0; then push
first and second moments through that map with ``model.propagate_moments``.

Both systems are stepped together by the order-6, three-Gauss-node Magnus
formula, every step of the solve in one batch, and the running product of
the step propagators is a Hillis-Steele scan. The steps depend only on the
parameters, not on the sample grid; a sample, on the grid or off it, is one
batched partial step from its left step edge, and Lambda there is its
step's series, built for all steps the first time Lambda is read. The map
is built as a product of five 2x2 conjugation matrices (scaling, basis
rotation, shear-scale, phase rotation, inverse basis rotation), which keeps
AE - BD = 1 to machine precision by construction. The solve uses numpy
alone, so its digits do not depend on the scipy version.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError, IntegrationError, ValidityError
# not used here; perfbench/tracing.py patches this name
from .integrators import integrate_adaptive  # noqa: F401
from .model import (_COEFF_KEYS, MomentTrajectory, PropagatorCoefficients,
                    _EffectiveOscillator, propagate_moments, validate)
from .staticdiag import StaticParams, static_translation

PIPELINE_SAMPLES = 2000
# Largest |Omega6 - Omega4| a Magnus step may keep (an estimate of the local
# error of the order-4 exponent; the order-6 one is far smaller).
MAGNUS_TOL = 1e-10


def default_grid(params, n_samples=PIPELINE_SAMPLES):
    return np.linspace(0.0, params.horizon, n_samples)


# -- linear auxiliary solve ------------------------------------------------------

# Nodes of the three-node Gauss-Legendre rule on [0, 1] (weights in _gauss):
# the Magnus nodes, and the rule for X.
_GAUSS = math.sqrt(15.0) / 10.0
_NODES = np.array([0.5 - _GAUSS, 0.5, 0.5 + _GAUSS])
# First steps advance the effective phase at t = 0 by this much; refinement
# splits them where MAGNUS_TOL asks, or where an Ermakov step turns by more
# than _MAX_ROTATION, which keeps every phase step far below the pi that
# unwrap needs.
_FIRST_ROTATION = 1.0 / 32.0
_MAX_ROTATION = 0.5
_MAX_REFINEMENTS = 6
_MAX_STEPS = 1 << 20
# values at five Gauss nodes of [0, 1] -> s, ..., s^5 coefficients of the integrated quartic
_LAMBDA_NODES = 0.5 + np.array([-1.0, -1.0, 0.0, 1.0, 1.0]) * np.sqrt(
    5.0 + np.array([2.0, -2.0, 0.0, -2.0, 2.0]) * math.sqrt(10.0 / 7.0)) / 6.0
_LAMBDA_SERIES = np.array([P.polyint(P.polyfromroots(np.delete(_LAMBDA_NODES, i)))[1:]
                           / np.prod(x - np.delete(_LAMBDA_NODES, i))
                           for i, x in enumerate(_LAMBDA_NODES)]).T
_LAMBDA_CHUNK = 256  # steps per pass of at(); one pass of 1207 steps peaked 5 MB higher


def _beta_p(m, axp, ap, bx, bxd):
    return m * (-bxd + 2.0 * axp * bx + ap)


def _gauss(f1, f2, f3):
    """The Gauss rule on [0, 1] from the values at the three nodes."""
    return (5.0 * f1 + 8.0 * f2 + 5.0 * f3) / 18.0


def _require_finite(values, t, what):
    """IntegrationError at the earliest t where one of ``values`` (arrays whose
    last axis lines up with the 1-d t) is not finite."""
    finite = np.isfinite(np.array(values))
    ok = finite.all(axis=tuple(range(finite.ndim - 1)))
    if not ok.all():
        raise IntegrationError(f"non-finite {what}", t=float(np.min(t[~ok])))


def _require_in_horizon(t, horizon):
    """DomainError at the first of the times t outside [0, horizon], or NaN."""
    outside = ~((t >= 0.0) & (t <= horizon))
    if outside.any():
        raise DomainError(f"t={t[outside][0]} is outside [0, {horizon}]")


def _kinks(params):
    """The sorted kinks of all coefficients (the knots of order-1 tables):
    no Magnus step and no five-point stencil spans one."""
    return np.sort([t for key in _COEFF_KEYS for t in getattr(params, key).kinks])


def _displacement_terms(kernel):
    """(m'/m, coeff, forcing) of the displacement equation
    beta_x'' + (m'/m) beta_x' = coeff beta_x + forcing."""
    m, md, _, w, _, _, axp, axpd, ap, apd, ax, *_ = kernel
    mlog = md / m
    return (mlog, 2.0 * axpd - w * w + 4.0 * axp * axp + 2.0 * axp * mlog,
            apd - ax / m + 2.0 * ap * axp + ap * mlog)


def _generators(kernel):
    """Per time, the generators of row 0, the displacement pair
    (beta_x, m beta_x') with d/dt = [[0, 1/m], [m coeff, 0]] and forcing
    (0, m forcing), and of row 1, the Ermakov partner (u, m5 u') with
    d/dt = [[0, 1/m5], [-m5 w5^2, 0]], as (b, c, g): upper, lower and forcing."""
    m, m5, w5sq = kernel[0], kernel[14], kernel[16]
    _, coeff, forcing = _displacement_terms(kernel)
    return (np.stack((1.0 / m, 1.0 / m5)), np.stack((m * coeff, -m5 * w5sq)),
            np.stack((m * forcing, 0.0 * m)))


# Traceless 2x2 generators with forcing, [[a, b], [c, -a]] and (f, g), are
# 5-tuples of arrays; unit-determinant affine maps, [[p, q], [r, s]] and
# (v, w), are 6-tuples. All algebra is per component: no batched matmul.


def _magnus(nodes, h, forcing_scale=None):
    """Order-6 Magnus exponent over steps of length h from the generators
    (b, c, g) at the three Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009), eq. 253). Given ``forcing_scale``, also the largest
    entry of |Omega6 - Omega4| per step, its forcing part relative to that
    scale: the displacement, and its error, grow with the forcing.

    With a1, a2, a3 the Legendre moments of the generator, k1 = [a1, a2]
    and k2 = [a1, 2 a3 + k1]:
    Omega6 = a1 + a3/12 + [-20 a1 - a3 + k1, a2 - k2/60]/240 and
    Omega4 = a1 + a3/12 - k1/12. The moments have a = f = 0, which the
    commutators below use.
    """
    (b1, c1, g1), (b2, c2, g2), (b3, c3, g3) = nodes
    r15 = math.sqrt(15.0) / 3.0 * h
    r10 = 10.0 / 3.0 * h
    ab, ac, ag = h * b2, h * c2, h * g2
    bb, bc, bg = r15 * (b3 - b1), r15 * (c3 - c1), r15 * (g3 - g1)
    cb, cc, cg = r10 * (b3 - 2.0 * b2 + b1), r10 * (c3 - 2.0 * c2 + c1), r10 * (g3 - 2.0 * g2 + g1)
    # k1 = (ka, 0, 0, kf, 0); right = a2 - k2/60; left = -20 a1 - a3 + k1
    ka, kf = ab * bc - bb * ac, ab * bg - bb * ag
    ra = (cb * ac - ab * cc) / 30.0
    rb, rc = bb + ka * ab / 30.0, bc - ka * ac / 30.0
    rf = (cb * ag - ab * cg) / 30.0
    rg = bg - (ac * kf + ka * ag) / 60.0
    lb, lc, lg = -20.0 * ab - cb, -20.0 * ac - cc, -20.0 * ag - cg
    # tail = [left, right] / 240
    ta = (lb * rc - rb * lc) / 240.0
    tb = (ka * rb - ra * lb) / 120.0
    tc = (lc * ra - ka * rc) / 120.0
    tf = (ka * rf + lb * rg - ra * kf - rb * lg) / 240.0
    tg = (lc * rf - ka * rg - rc * kf + ra * lg) / 240.0
    omega = (ta, ab + cb / 12.0 + tb, ac + cc / 12.0 + tc, tf, ag + cg / 12.0 + tg)
    if forcing_scale is None:
        return omega
    return omega, np.maximum(np.max(np.abs([ta + ka / 12.0, tb, tc]), axis=0),
                             np.maximum(abs(tf + kf / 12.0), abs(tg)) / forcing_scale)


def _expm(omega):
    """exp of the affine generator: e^M = cosh(s) I + sinh(s)/s M with
    s^2 = a^2 + bc, and the forcing through phi1(M) = sinh(s)/s I
    + (sinh(s/2)/(s/2))^2/2 M, all from the half angle (cos and sin when
    s^2 < 0)."""
    a, b, c, f, g = omega
    d = a * a + b * c
    r = 0.5 * np.sqrt(np.abs(d))
    grow = d > 0.0
    if grow.any():
        ch, sh = np.where(grow, np.cosh(r), np.cos(r)), np.where(grow, np.sinh(r), np.sin(r))
    else:
        ch, sh = np.cos(r), np.sin(r)
    sinc = np.divide(sh, r, out=np.ones_like(r), where=r > 0.0)
    half = 0.5 * sinc * sinc
    s1 = sinc * ch
    c1 = 1.0 + d * half
    return (c1 + s1 * a, s1 * b, s1 * c, c1 - s1 * a,
            s1 * f + half * (a * f + b * g), s1 * g + half * (c * f - a * g))


def _compose(later, earlier):
    p2, q2, r2, s2, v2, w2 = later
    p1, q1, r1, s1, v1, w1 = earlier
    return (p2 * p1 + q2 * r1, p2 * q1 + q2 * s1, r2 * p1 + s2 * r1, r2 * q1 + s2 * s1,
            p2 * v1 + q2 * w1 + v2, r2 * v1 + s2 * w1 + w2)


def _scan(maps):
    """Running products along the last axis: entry k becomes map k after
    map k-1 ... after map 0 (Hillis & Steele, Comm. ACM 29, 1170 (1986))."""
    maps = [x.copy() for x in maps]
    d, n = 1, maps[0].shape[-1]
    while d < n:
        later = [x[..., d:] for x in maps]
        done = _compose(later, [x[..., :-d] for x in maps])
        for x, y in zip(later, done):
            x[...] = y
        d *= 2
    return maps


def _subdivide(edges, split):
    """Split step k into split[k] equal steps."""
    n = split.astype(int)
    k = np.repeat(np.arange(n.size), n)
    part = np.arange(k.size) - np.repeat(np.cumsum(n) - n, n)
    return np.append(edges[k] + (edges[k + 1] - edges[k]) * (part / n[k]), edges[-1])


class _AuxiliaryFlow:
    """The two linear auxiliary systems on [0, T] by order-6 Magnus steps:
    the states at the step edges, and the state at any time by one batched
    partial step from the left edge of its step.

    The start is read off the effective-oscillator tuple at t = 0
    (``kernel0``): the displacement pair from the translation of the frozen
    t = 0 Hamiltonian, a SingularityError if omega(0)^2 = 4 a_xp(0)^2, and
    rho at the adiabatic 1/sqrt(m5 w5) with rho_dot = 0.

    The first steps advance the t = 0 effective phase by _FIRST_ROTATION,
    uniform between the kinks of the coefficients (the knots of order-1
    tables), so that no step straddles a kink: the order-6 formula assumes
    a smooth generator, and a kink inside a step costs it about 1e-5 on the
    map. Steps are split, a priori, where |Omega6 - Omega4| exceeds
    MAGNUS_TOL or an Ermakov step turns by more than _MAX_ROTATION.
    A ValidityError names the earliest Gauss node where w + kappa or
    w^2 - kappa^2 is not positive; a non-finite generator, propagator or
    state is an IntegrationError at the earliest time it appears.
    """

    def __init__(self, oscillator, horizon, kernel0):
        self.oscillator = oscillator
        params = oscillator.params
        m, _, _, w, _, _, axp, _, ap, _, ax, a0, *_, m5, _, w5sq = kernel0
        bx0, bp0 = static_translation(StaticParams(m, w, ax, ap, axp, a0, params.hbar))
        bxd0 = 2.0 * axp * bx0 + ap - bp0 / m
        # (beta_x, beta_p) at 0, with beta_p from the same formula as at any t
        self.beta_0 = bx0, _beta_p(m, axp, ap, bx0, bxd0)
        nu0 = math.sqrt(w5sq)
        self.rho0 = rho0 = 1.0 / math.sqrt(m5 * nu0)
        # the first steps split [0, T] uniformly between kinks; each later
        # round splits the steps the estimate flags
        edges = np.array(sorted({0.0, horizon, *(t for t in _kinks(params).tolist()
                                                 if 0.0 < t < horizon)}))
        split = np.maximum(1.0, np.ceil(np.diff(edges) * nu0 / _FIRST_ROTATION))
        for _ in range(_MAX_REFINEMENTS + 1):
            if split.sum() > _MAX_STEPS:
                raise IntegrationError(f"more than {_MAX_STEPS} Magnus steps",
                                       t=float(edges[np.argmax(split > 1)]))
            edges = _subdivide(edges, split)
            h = np.diff(edges)
            _, nodes, x_step = self._step(edges[:-1], h)
            omega, error = _magnus(nodes, h, np.maximum(1.0, np.max(np.abs(
                [g for _, _, g in nodes]), axis=0)))
            _require_finite((error,), edges[:-1], "Magnus error estimate")
            # the Ermakov row's turn; the error of the worse row
            turn = np.sqrt(np.abs(omega[0][1] ** 2 + omega[1][1] * omega[2][1]))
            split = np.maximum(1.0, np.ceil(np.maximum(
                (error.max(axis=0) / MAGNUS_TOL) ** 0.2, turn / _MAX_ROTATION)))
            if not (split > 1.0).any():
                break
        else:
            raise IntegrationError("Magnus step refinement did not settle",
                                   t=float(edges[np.argmax(split > 1.0)]))
        maps = _expm(omega)
        _require_finite(maps, edges[1:], "step propagator")
        # the identity at edge 0, then the running products
        p, q, r, s, v, w = _scan([np.insert(x, 0, e, axis=1)
                                  for x, e in zip(maps, (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))])
        y0 = m * bxd0
        u1, u2 = rho0 * p[1], q[1] / rho0
        self.edges = edges
        # per edge: beta_x, m beta_x', the partner solutions (u, m5 u') from
        # (rho0, 0) and from (0, 1/rho0), Phi and X
        self.states = np.array([p[0] * bx0 + q[0] * y0 + v[0], r[0] * bx0 + s[0] * y0 + w[0],
                                u1, rho0 * r[1], u2, s[1] / rho0,
                                np.unwrap(np.arctan2(u2, u1)),
                                np.concatenate(([0.0], np.cumsum(x_step)))])
        _require_finite(self.states, edges, "auxiliary state")

    def _step(self, left, tau, head=()):
        """From one kernel pass over ``head`` and the Gauss nodes of
        [left, left + tau]: the kernel at head, the generators (b, c, g) of
        rows 0 and 1 at each of the three nodes, and the X increments."""
        nodes = (left[:, None] + tau[:, None] * _NODES).ravel()
        kernel = self.oscillator.at(np.concatenate((head, nodes)))
        n_head = len(head)
        gens = _generators(tuple(x[n_head:] for x in kernel))
        _require_finite(gens, nodes, "effective-oscillator coefficient")
        gens = [x.reshape(2, -1, 3) for x in gens]
        x_step = tau * _gauss(*kernel[6][n_head:].reshape(-1, 3).T)
        return (tuple(x[:n_head] for x in kernel),
                [tuple(x[..., i] for x in gens) for i in range(3)], x_step)

    @functools.cached_property
    def _lambda_series(self):
        """(Lambda at the edges, h times each step's series); einsum, as @ would start BLAS."""
        nodes = (self.edges[:-1, None] + np.diff(self.edges)[:, None] * _LAMBDA_NODES).ravel()
        f = np.empty_like(nodes)
        for i in range(0, nodes.size, 5 * _LAMBDA_CHUNK):
            (bx, bxd, *_), kernel = self.at(nodes[i:i + 5 * _LAMBDA_CHUNK])
            m, _, _, w, _, _, axp, _, ap, _, ax, a0 = kernel[:12]
            bp = _beta_p(m, axp, ap, bx, bxd)
            f[i:i + 5 * _LAMBDA_CHUNK] = a0 + bp * bp / (2.0 * m) + 0.5 * m * w * w * bx * bx \
                + ax * bx - ap * bp - 2.0 * axp * bx * bp
        series = np.diff(self.edges) * np.einsum("ij,kj->ik", _LAMBDA_SERIES, f.reshape(-1, 5))
        edge = np.concatenate(([0.0], np.cumsum(series.sum(axis=0))))
        _require_finite((f, np.repeat(edge[1:], 5)), nodes, "auxiliary state")
        return edge, series

    def _locate(self, t):
        """(t as a 1-d array, the step of each time, its left edge, tau); a t
        with more than one axis is a DomainError."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.ndim > 1:
            raise DomainError(f"t must be a scalar or a 1-d array, got shape {t.shape}")
        _require_in_horizon(t, self.edges[-1])
        k = np.minimum(np.searchsorted(self.edges, t, side="right") - 1, self.edges.size - 1)
        return t, k, self.edges[k], t - self.edges[k]

    def at(self, t, kernel=None):
        """[beta_x, beta_x_dot, rho, rho_dot, Phi, X] at the times t as a
        1-d array, and the effective-oscillator tuple there (evaluated in
        the partial step's kernel pass unless given); Lambda is lambda_at's."""
        t, k, left, tau = self._locate(t)
        head, nodes, x_step = self._step(left, tau, () if kernel is not None else t)
        kernel = head if kernel is None else kernel
        p, q, r, s, v, w = _expm(_magnus(nodes, tau))
        bx0, y0, u10, q10, u20, q20, phi0, x0 = self.states[:, k]
        bx = p[0] * bx0 + q[0] * y0 + v[0]
        y = r[0] * bx0 + s[0] * y0 + w[0]
        u1, u2 = p[1] * u10 + q[1] * q10, p[1] * u20 + q[1] * q20
        q1, q2 = r[1] * u10 + s[1] * q10, r[1] * u20 + s[1] * q20
        m, m5 = kernel[0], kernel[14]
        rho = np.hypot(u1, u2)
        out = [bx, y / m, rho, (u1 * q1 + u2 * q2) / (m5 * rho),
               phi0 + np.arctan2(u10 * u2 - u20 * u1, u10 * u1 + u20 * u2), x0 + x_step]
        _require_finite(out, t, "auxiliary state")
        return out, kernel

    def lambda_at(self, t):
        """Lambda at the times t as a 1-d array: edge plus series at s = tau/h (T: s = 1)."""
        t, k, _, _ = self._locate(t)
        k = np.minimum(k, self.edges.size - 2)
        edge, series = self._lambda_series
        s = (t - self.edges[k]) / (self.edges[k + 1] - self.edges[k])
        return edge[k] + s * P.polyval(s, series[:, k], tensor=False)


def _scalar_or_array(t, values):
    return tuple(v[0] for v in values) if np.ndim(t) == 0 else tuple(values)


@dataclass(frozen=True)
class BetaSolution:
    """Sampled displacement pair, a view of the auxiliary solution.

    beta_p is recovered algebraically from (beta_x, beta_x_dot), so the
    defining constraint beta_p = m(-beta_x_dot + 2 a_xp beta_x + a_p)
    holds exactly on the grid.
    """

    times: np.ndarray
    beta_x: np.ndarray
    beta_x_dot: np.ndarray
    beta_p: np.ndarray
    _flow: object

    def at(self, t):
        """(beta_x, beta_x_dot, beta_p) at arbitrary t, by a partial step."""
        (bx, bxd, *_), kernel = self._flow.at(t)
        m, _, _, _, _, _, axp, _, ap, *_ = kernel
        return _scalar_or_array(t, (bx, bxd, _beta_p(m, axp, ap, bx, bxd)))

    def constraint_residual(self):
        """|beta_p - m(-beta_x_dot + 2 a_xp beta_x + a_p)| on the grid."""
        p = self._flow.oscillator.params
        ts = self.times
        predicted = p.m.value(ts) * (-self.beta_x_dot
                                     + 2.0 * p.alpha_xp.value(ts) * self.beta_x
                                     + p.alpha_p.value(ts))
        return np.abs(self.beta_p - predicted)


@dataclass(frozen=True)
class ErmakovSolution:
    """Sampled Ermakov scale rho with the three running phase integrals:
    Phi = int Omega, X = int a_xp, Lambda = int (a_0 + ell). A view of the
    auxiliary solution; Lambda, from the displacement alone, is a per-step
    series built on first use over all steps and read at any time after."""

    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    Phi: np.ndarray
    X: np.ndarray
    _flow: object

    def at(self, t):
        """(rho, rho_dot, Phi, X, Lambda) at arbitrary t: the first four by a
        partial step, Lambda from the series of its step."""
        states, _ = self._flow.at(t)
        return _scalar_or_array(t, (*states[2:], self._flow.lambda_at(t)))

    @functools.cached_property
    def Lambda(self):
        return self._flow.lambda_at(self.times)

    @property
    def rho0(self):
        return self.rho[0]


def _solve_auxiliary(params, grid):
    """Solve the displacement pair and the Ermakov partner on [0, T] and
    sample them on the 1-d grid, extended by 0 and T (a DomainError past
    them or for another shape).

    The start comes from the kernel at t = 0 (see _AuxiliaryFlow). A
    ValidityError names the time and the constraint wherever w + kappa or
    w^2 - kappa^2 stops being positive: first on the grid, then at the Gauss
    nodes of the steps and of the partial steps to the samples. Returns
    (BetaSolution, ErmakovSolution) sharing one solution, and the
    effective-oscillator tuple on the grid.
    """
    if grid is not None and np.ndim(grid) != 1:
        raise DomainError(f"grid must be a 1-d array, got shape {np.shape(grid)}")
    grid = np.sort(np.concatenate((default_grid(params) if grid is None else grid,
                                   [0.0, params.horizon])))
    # the range before the kernel, which past T could fail or overflow first;
    # then drop repeats as np.union1d would, without the numpy.ma it imports
    _require_in_horizon(grid, params.horizon)
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    oscillator = _EffectiveOscillator(params)
    kernel = oscillator.at(grid)
    m, _, _, _, _, _, axp, _, ap, *_ = kernel
    start = np.searchsorted(grid, 0.0)
    flow = _AuxiliaryFlow(oscillator, params.horizon, tuple(x[start] for x in kernel))
    (bx, bxd, rho, rho_dot, phi, x), _ = flow.at(grid, kernel)
    beta = BetaSolution(times=grid, beta_x=bx, beta_x_dot=bxd,
                        beta_p=_beta_p(m, axp, ap, bx, bxd), _flow=flow)
    ermakov = ErmakovSolution(times=grid, rho=rho, rho_dot=rho_dot, Phi=phi, X=x, _flow=flow)
    return beta, ermakov, kernel


def solve_beta(params, grid=None):
    """Displacement pair on [0, T]: the BetaSolution half of the auxiliary
    solve."""
    return _solve_auxiliary(params, grid)[0]


def solve_ermakov(params, grid=None):
    """Ermakov scale and phase quadratures on [0, T]: the ErmakovSolution
    half of the auxiliary solve, which also solves the displacement pair
    that Lambda needs."""
    return _solve_auxiliary(params, grid)[1]


# -- propagator coefficients ------------------------------------------------


def _rot(theta, metric):
    c, s = np.cos(theta), np.sin(theta)
    return (c, s / metric, -metric * s, c, 0.0, 0.0)


def _assemble(flow, kernel, states, t):
    """Propagator coefficients at time(s) t, scalars for a scalar t, from the
    effective-oscillator tuple and the states (beta_x, beta_x_dot, rho,
    rho_dot, Phi) at the 1-d times of t, and the flow's values at 0.

    Product of scaling by gamma, a pi/4 rotation in the metric
    eta = m(0) w(0), the Ermakov shear-scale, the rotation by the
    accumulated phase Phi, and the inverse pi/4 rotation.
    """
    eta0, rho0 = flow.oscillator.eta0, flow.rho0
    bx_t, bxd_t, rho, rho_dot, phi = states
    m, _, _, w, _, _, axp, _, ap, *_, m5, _, _ = kernel
    g = np.sqrt(eta0 / (m * w))

    # 6-tuples with zero translation, so that _compose multiplies them
    a_d = (g, 0.0, 0.0, 1.0 / g, 0.0, 0.0)
    a_e = _rot(math.pi / 4.0, eta0)
    a_f = (rho / rho0, 0.0, m5 * rho_dot / rho0, rho0 / rho, 0.0, 0.0)
    a_7 = _rot(phi, 1.0 / rho0 ** 2)
    a_e_inv = _rot(-math.pi / 4.0, eta0)

    a, b, d, e, _, _ = _compose(a_d, _compose(a_e, _compose(a_f, _compose(a_7, a_e_inv))))
    ts = np.array(t, dtype=float, ndmin=1)
    return PropagatorCoefficients(
        *_scalar_or_array(t, (ts, a, b, d, e, bx_t, _beta_p(m, axp, ap, bx_t, bxd_t))),
        *flow.beta_0)


def coefficients(params, beta, ermakov, t):
    """Propagator coefficients at time(s) t, each by one partial step of the
    auxiliary solution: scalars for a scalar t, else arrays."""
    states, kernel = beta._flow.at(t)
    return _assemble(beta._flow, kernel, states[:5], t)


# -- moments ----------------------------------------------------------------


def global_phase(ermakov, t):
    """Accumulated scalar phase -Lambda(t)/hbar, with hbar from the solution."""
    flow = ermakov._flow
    return _scalar_or_array(t, (-flow.lambda_at(t) / flow.oscillator.params.hbar,))[0]


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
        return global_phase(self.ermakov, self.grid if t is None else t)


def solve(params, n_samples=PIPELINE_SAMPLES):
    """Run the full chain on a uniform grid and return a PipelineSolution."""
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples}")
    validate(params).raise_if_invalid()
    grid = default_grid(params, n_samples)
    beta, ermakov, kernel = _solve_auxiliary(params, grid)
    # from the solve's own samples and kernel tuple: no second pass on the grid
    coeffs = _assemble(beta._flow, kernel, (beta.beta_x, beta.beta_x_dot, ermakov.rho,
                                            ermakov.rho_dot, ermakov.Phi), grid)
    return PipelineSolution(params=params, grid=grid, beta=beta,
                            ermakov=ermakov, coeffs=coeffs)


# -- independent residual checks --------------------------------------------


def _five_point_residual(params, flow, T, rows, residual):
    """Max |residual(kernel, y'', *states[rows])| over stencil times tt in
    [2h, T - 2h], h = T/4096, with the flow's states and effective-oscillator
    tuple at tt, where y'' is the five-point central difference of the last
    of the rows. Times whose span [tt - 2h, tt + 2h] holds a kink of the
    coefficients (a knot of an order-1 table, where second derivatives jump)
    are left out; NaN if none is left."""
    h = T / 4096.0
    tt = np.linspace(2.0 * h, T - 2.0 * h, 257)
    kinks = _kinks(params)
    tt = tt[np.searchsorted(kinks, tt - 2 * h) == np.searchsorted(kinks, tt + 2 * h, "right")]
    if not tt.size:
        return math.nan
    last = rows.stop - 1
    dd = (-flow.at(tt + 2 * h)[0][last] + 8.0 * flow.at(tt + h)[0][last]
          - 8.0 * flow.at(tt - h)[0][last] + flow.at(tt - 2 * h)[0][last]) / (12.0 * h)
    states, kernel = flow.at(tt)
    return float(np.abs(residual(kernel, dd, *states[rows])).max())


def ermakov_residual(params, ermakov):
    """Max Ermakov-equation residual, with the second derivative taken by a
    five-point central difference of the integrated rho_dot channel."""
    def residual(kernel, rho_dd, rho, rho_dot):
        *_, m5, m5_log_dot, w5sq = kernel
        return rho_dd + m5_log_dot * rho_dot + w5sq * rho - 1.0 / (m5 * m5 * rho ** 3)

    return _five_point_residual(params, ermakov._flow, float(ermakov.times[-1]),
                                slice(2, 4), residual)


def beta_ode_residual(params, beta):
    """Max second-order displacement-equation residual via a five-point
    central difference of the integrated beta_x_dot channel."""
    def residual(kernel, bxdd, bx, bxd):
        mlog, coeff, forcing = _displacement_terms(kernel)
        return bxdd + mlog * bxd - coeff * bx - forcing

    return _five_point_residual(params, beta._flow, float(beta.times[-1]), slice(0, 2), residual)
