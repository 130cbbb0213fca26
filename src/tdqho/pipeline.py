"""End-to-end propagation of moments for the time-dependent quadratic model.

The chain: solve the auxiliary problems as two linear systems, the affine
displacement pair (beta_x, m beta_x') tracking the drives and the Ermakov
partner (u, m5 u') of the effective oscillator; read the Ermakov scale
(rho, rho_dot) and the phase Phi off two solutions of the partner by Pinney
superposition; take the one quadrature, the global-phase integral
Lambda = int (a_0 + ell) with the energy bias ell(t) from the
displacement, by one rule at every time, the 5-node Gauss-Legendre rule
between points where the integrand is smooth; assemble the linear map
(A, B, D, E) relating centered means at time t to those at 0; then push
first and second moments through that map with ``model.propagate_moments``.

Both systems are stepped together by the order-6, three-Gauss-node Magnus
formula, every step of the solve in one batch, and the running product of
the step propagators is a Hillis-Steele scan. The steps depend only on the
parameters, not on the sample grid; a sample, on the grid or off it, is read
off the dense output of its step, one quintic Hermite series per step in the
six linear states, built once per solve from their values, slopes and
curvatures at the step edges, with steps split where its defect or the
Ermakov turn asks. Lambda is summed at the breaks (step edges and table
knots) on first read; a query adds the Gauss integral from the last break up
to it, one kernel pass at five nodes per time.
The map is built as a product of five 2x2 conjugation matrices (scaling,
basis rotation, shear-scale, phase rotation, inverse basis rotation), which
keeps AE - BD = 1 to machine precision by construction. Like the rest of
the package, the solve needs numpy alone.

One ``PipelineSolution`` per solve steps both systems, holds their samples
on its grid and the coefficients there, and reads them at any other time
with ``at``. ``solve`` validates and samples a uniform grid;
``solve_ermakov`` samples any 1-d grid, unvalidated.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, IntegrationError, ValidityError
# not used here; perfbench/tracing.py patches this name
from .integrators import integrate_adaptive  # noqa: F401
from .model import (_COEFF_KEYS, EffectiveOscillator, PropagatorCoefficients,
                    propagate_moments, validate)
from .staticdiag import StaticParams, _energy_offset, static_translation

PIPELINE_SAMPLES = 2000
# Largest error estimate of a step's dense output, from its defect: the
# series solves exactly the ODE perturbed by its defect, so this bounds the
# step's propagation error as well as its interpolation error.
MAGNUS_TOL = 1e-10


# -- linear auxiliary solve ------------------------------------------------------

# Nodes of the three-node Gauss-Legendre rule on [0, 1]: the Magnus nodes.
_GAUSS = math.sqrt(15.0) / 10.0
_NODES = np.array([0.5 - _GAUSS, 0.5, 0.5 + _GAUSS])
# First steps advance the effective phase at t = 0 by this much; refinement
# splits them where the series' defect puts its error above MAGNUS_TOL, or
# where an Ermakov step turns by more than _MAX_ROTATION, which keeps every
# phase step far below the pi that unwrap needs.
_FIRST_ROTATION = 1.0 / 32.0
_MAX_ROTATION = 0.5
_MAX_REFINEMENTS = 6
_MAX_STEPS = 1 << 20
# Nodes and weights of the five-node Gauss-Legendre rule on [0, 1]: Lambda's quadrature.
_PHASE_NODES, _PHASE_WEIGHTS = np.polynomial.legendre.leggauss(5)
_PHASE_NODES, _PHASE_WEIGHTS = 0.5 + 0.5 * _PHASE_NODES, 0.5 * _PHASE_WEIGHTS


def _beta_p(k, bx, bxd):
    """beta_p from (beta_x, beta_x_dot) and the EffectiveQuantities k."""
    return k.m * (-bxd + 2.0 * k.alpha_xp * bx + k.alpha_p)


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


def _drop_repeats(t):
    """The sorted 1-d t without repeats: np.union1d imports numpy.ma."""
    return t[np.append(True, t[1:] != t[:-1])]


def _kinks(params):
    """The sorted kinks of all coefficients (the knots of order-1 tables):
    no Magnus step and no five-point stencil spans one."""
    return np.sort([t for key in _COEFF_KEYS for t in getattr(params, key).kinks])


def _displacement_terms(k):
    """(m'/m, coeff, forcing) of the displacement equation
    beta_x'' + (m'/m) beta_x' = coeff beta_x + forcing, from the
    EffectiveQuantities k."""
    m, w, axp, ap = k.m, k.omega, k.alpha_xp, k.alpha_p
    mlog = k.m_dot / m
    return (mlog, 2.0 * k.alpha_xp_dot - w * w + 4.0 * axp * axp + 2.0 * axp * mlog,
            k.alpha_p_dot - k.alpha_x / m + 2.0 * ap * axp + ap * mlog)


def _generators(k):
    """Per time, the generators of row 0, the displacement pair
    (beta_x, m beta_x') with d/dt = [[0, 1/m], [m coeff, 0]] and forcing
    (0, m forcing), and of row 1, the Ermakov partner (u, m5 u') with
    d/dt = [[0, 1/m5], [-m5 w5^2, 0]], as (b, c, g): upper, lower and forcing."""
    m, m5 = k.m, k.m5
    _, coeff, forcing = _displacement_terms(k)
    return (np.stack((1.0 / m, 1.0 / m5)), np.stack((m * coeff, -m5 * k.omega5_sq)),
            np.stack((m * forcing, 0.0 * m)))


# Traceless 2x2 generators with forcing, [[a, b], [c, -a]] and (f, g), are
# 5-tuples of arrays; affine maps stack the rows [[p, q, v], [r, s, w]] of their
# 3x3 form on the leading axes, times last: one einsum per product (matmul starts BLAS).


def _magnus(nodes, h):
    """Order-6 Magnus exponent over steps of length h from the generators
    (b, c, g) at the three Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009), eq. 253).

    With a1, a2, a3 the Legendre moments of the generator, k1 = [a1, a2]
    and k2 = [a1, 2 a3 + k1]:
    Omega6 = a1 + a3/12 + [-20 a1 - a3 + k1, a2 - k2/60]/240. The moments
    have a = f = 0, which the commutators below use.
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
    return ta, ab + cb / 12.0 + tb, ac + cc / 12.0 + tc, tf, ag + cg / 12.0 + tg


def _expm(omega, out):
    """exp of the affine generator into the stacked maps ``out``:
    e^M = cosh(s) I + sinh(s)/s M with s^2 = a^2 + bc, and the forcing
    through phi1(M) = sinh(s)/s I + (sinh(s/2)/(s/2))^2/2 M, all from the
    half angle (cos and sin when s^2 < 0)."""
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
    out[0, 0], out[0, 1], out[0, 2] = c1 + s1 * a, s1 * b, s1 * f + half * (a * f + b * g)
    out[1, 0], out[1, 1], out[1, 2] = s1 * c, c1 - s1 * a, s1 * g + half * (c * f - a * g)


def _mul(later, earlier):
    """later times earlier, matrices on the two leading axes of each."""
    return np.einsum("ij...,jk...->ik...", later, earlier)


def _scan(maps):
    """Running products along the last axis, in place: entry k becomes map k
    after ... after map 0 (Hillis & Steele, Comm. ACM 29, 1170 (1986))."""
    d, n = 1, maps.shape[-1]
    while d < n:
        later = maps[..., d:]
        done = _mul(later[:, :2], maps[..., :-d])
        done[:, 2] += later[:, 2]
        later[...] = done
        d *= 2
    return maps


def _subdivide(edges, split):
    """Split step k into split[k] equal steps."""
    n = split.astype(int)
    k = np.repeat(np.arange(n.size), n)
    part = np.arange(k.size) - np.repeat(np.cumsum(n) - n, n)
    return np.append(edges[k] + (edges[k + 1] - edges[k]) * (part / n[k]), edges[-1])


# -- dense output ------------------------------------------------------------

# s^j and d(s^j)/ds at the outer Gauss nodes, the defect's nodes
_DEFECT_POWERS = np.array([[[s ** j for j in range(6)] for s in _NODES[::2]],
                           [[j * s ** (j - 1) for j in range(6)] for s in _NODES[::2]]])


def _field(b, c, g, y):
    """G y + F for the linear states y (leading axis) from the generators b
    and c of rows 0 and 1 and row 0's forcing g."""
    return np.concatenate((b[0] * y[3:4], b[1] * y[4:6], c[0] * y[:1] + g, c[1] * y[1:3]))


def _slopes(k, y):
    """(y', y'') of the linear states y from the EffectiveQuantities k at
    their times: y' = G y + F and y'' = G' y + F' + G y', with G' and F'
    from _generators differentiated in closed form."""
    m, md, mdd, w, wd = k.m, k.m_dot, k.m_ddot, k.omega, k.omega_dot
    axp, axpd, ap, apd, m5, m5log = (k.alpha_xp, k.alpha_xp_dot, k.alpha_p,
                                     k.alpha_p_dot, k.m5, k.m5_log_dot)
    b, c, g = _generators(k)
    dy = _field(b, c, g[0], y)
    return dy, _field(
        (-md / (m * m), -m5log / m5),
        (2.0 * m * k.alpha_xp_ddot + 4.0 * md * axpd - md * w * w - 2.0 * m * w * wd
         + 4.0 * md * axp * axp + 8.0 * m * axp * axpd + 2.0 * axp * mdd,
         -m5 * (m5log * k.omega5_sq + 2.0 * (w * wd - k.kappa * k.kappa_dot))),
        m * k.alpha_p_ddot + 2.0 * md * apd - k.alpha_x_dot + 2.0 * md * ap * axp
        + 2.0 * m * apd * axp + 2.0 * m * ap * axpd + ap * mdd, y) + _field(b, c, 0.0, dy)


def _hermite(y0, v0, a0, y1, v1, a1, out):
    """Into out, the s^0, ..., s^5 coefficients of the quintic on [0, 1]
    with the values y, slopes v and curvatures a (in s) at both ends."""
    d = y1 - y0
    out[0], out[1], out[2] = y0, v0, 0.5 * a0
    out[3] = 10.0 * d - 6.0 * v0 - 4.0 * v1 - 1.5 * a0 + 0.5 * a1
    out[4] = -15.0 * d + 8.0 * v0 + 7.0 * v1 + 1.5 * a0 - a1
    out[5] = 6.0 * d - 3.0 * (v0 + v1) - 0.5 * (a0 - a1)


def _scalar_or_array(t, values):
    return tuple(v[0] for v in values) if np.ndim(t) == 0 else tuple(values)


def _rot(c, s, metric):
    return np.array([[c, s / metric], [-metric * s, c]])


# -- one solution -----------------------------------------------------------


class PipelineSolution:
    """One parameter set's auxiliary solution, sampled on its grid.

    ``rho``, ``rho_dot`` and ``Phi`` = int Omega are the Ermakov samples on
    ``grid``, and ``coeffs`` the propagator coefficients there, whose
    ``beta_x_t`` and ``beta_p_t`` are the displacement pair: beta_p comes
    algebraically from (beta_x, beta_x_dot), so
    beta_p = m(-beta_x_dot + 2 a_xp beta_x + a_p) holds exactly on the grid.
    ``at`` reads all of them at any time of [0, T].

    They come from the two linear auxiliary systems on [0, T], stepped by
    order-6 Magnus steps: the six linear states at the step edges
    (``states``, in _propagate's order) and Phi there (``phi``), and at any
    time the dense output of its step, one quintic Hermite series per step
    in the six linear states (Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, sec. II.6). Lambda is not a state: it is the
    running sum, built on first use, of 5-node Gauss integrals of a_0 + ell
    between the breaks (the step edges and the knots of tabulated
    coefficients), plus the integral from the last break up to t.

    The start is read off the EffectiveQuantities at t = 0: the
    displacement pair from the translation of the frozen t = 0 Hamiltonian,
    a SingularityError if omega(0)^2 = 4 a_xp(0)^2, and rho at the adiabatic
    1/sqrt(m5 w5) with rho_dot = 0.

    The first steps advance the t = 0 effective phase by _FIRST_ROTATION,
    uniform between the kinks of the coefficients (the knots of order-1
    tables), so that no step straddles a kink: the order-6 formula assumes
    a smooth generator, and a kink inside a step costs it about 1e-5 on the
    map. Each round steps, fits the series and splits steps where an Ermakov
    step turns by more than _MAX_ROTATION or the series' defect at the outer
    Gauss nodes puts its error above MAGNUS_TOL, until none splits. The
    series matches value, slope and curvature at both edges of its step, the
    right edge's read from inside the step, so that a kink there is seen
    from the step's own side. It thus solves exactly the ODE perturbed by
    its defect, which bounds the propagation error too (Enright, J. Comput.
    Appl. Math. 125, 159 (2000)).
    A ValidityError names the earliest failure of validate's four rules
    (model.EffectiveOscillator), first on the grid, then at the Gauss
    nodes and the edges of the steps; a non-finite generator, propagator or
    state is an IntegrationError at the earliest time it appears.
    """

    def __init__(self, params, grid):
        """The solve sampled on the 1-d ``grid`` extended by 0 and T, sorted
        and without repeats; a DomainError for another shape or a time
        outside [0, T]."""
        if np.ndim(grid) != 1:
            raise DomainError(f"grid must be a 1-d array, got shape {np.shape(grid)}")
        grid = np.sort(np.concatenate((grid, [0.0, params.horizon])))
        # the range before the kernel, which past T could fail or overflow first
        _require_in_horizon(grid, params.horizon)
        grid = _drop_repeats(grid)
        self.params, self.grid = params, grid
        self.oscillator = EffectiveOscillator(params)
        kernel = self.oscillator.at(grid)
        k0 = kernel._make(x[0] for x in kernel)
        bx0, bp0 = static_translation(StaticParams(k0.m, k0.omega, k0.alpha_x, k0.alpha_p,
                                                   k0.alpha_xp, k0.alpha_0, params.hbar))
        bxd0 = 2.0 * k0.alpha_xp * bx0 + k0.alpha_p - bp0 / k0.m
        # (beta_x, beta_p) at 0, with beta_p from the same formula as at any t
        self.beta_0 = bx0, _beta_p(k0, bx0, bxd0)
        nu0 = math.sqrt(k0.omega5_sq)
        self.rho0 = 1.0 / math.sqrt(k0.m5 * nu0)
        start = bx0, k0.m * bxd0
        # the first steps split [0, T] uniformly between kinks; each later
        # round splits the steps that turn too far or whose series' defect is too large
        horizon = params.horizon
        kinks = _kinks(params)
        edges = np.array(sorted({0.0, horizon, *(t for t in kinks.tolist()
                                                 if 0.0 < t < horizon)}))
        with np.errstate(over="ignore"):     # an infinite count fails the cap below
            split = np.maximum(1.0, np.ceil(np.diff(edges) * nu0 / _FIRST_ROTATION))
        for _ in range(_MAX_REFINEMENTS + 1):
            if split.sum() > _MAX_STEPS:
                raise IntegrationError(f"more than {_MAX_STEPS} Magnus steps",
                                       t=float(edges[np.argmax(split > 1)]))
            edges = _subdivide(edges, split)
            h = np.diff(edges)
            nodes = self._step(edges[:-1], h)
            omega = _magnus(nodes, h)
            self._propagate(edges, omega, start)
            self._fit(kinks)
            # the Ermakov row's turn; the series' error grows as h^6
            turn = np.sqrt(np.abs(omega[0][1] ** 2 + omega[1][1] * omega[2][1]))
            split = np.maximum(1.0, np.ceil(np.maximum(
                turn / _MAX_ROTATION, (self._defect(nodes) / MAGNUS_TOL) ** (1.0 / 6.0))))
            if not (split > 1.0).any():
                break
        else:
            raise IntegrationError("Magnus step refinement did not settle",
                                   t=float(edges[np.argmax(split > 1.0)]))
        states, _ = self._states(grid, kernel)
        # from the solve's own samples and kernel: no second pass on the grid
        self.rho, self.rho_dot, self.Phi = states[2:]
        self.coeffs = self._assemble(kernel, states, grid)

    def _step(self, left, h):
        """From one kernel pass over the Gauss nodes of [left, left + h]: the
        generators (b, c, g) of rows 0 and 1 at each of the three nodes."""
        nodes = (left + h * _NODES[:, None]).ravel()
        kernel = self.oscillator.at(nodes)
        gens = _generators(kernel)
        _require_finite(gens, nodes, "effective-oscillator coefficient")
        gens = [x.reshape(2, 3, -1) for x in gens]
        return [tuple(x[:, i] for x in gens) for i in range(3)]

    def _propagate(self, edges, omega, start):
        """The states at the edges from the step exponents and the
        displacement pair at 0."""
        # the identity at edge 0, then the running products
        maps = np.empty((2, 3, 2, edges.size))
        maps[..., 0] = np.eye(2, 3)[..., None]
        _expm(omega, maps[..., 1:])
        _require_finite(maps[..., 1:], edges[1:], "step propagator")
        (p, q, v), (r, s, w) = _scan(maps)
        (bx0, y0), rho0 = start, self.rho0
        u1, u2 = rho0 * p[1], q[1] / rho0
        self.edges = edges
        # per edge, in the order of the series: the positions beta_x and u1, u2
        # of the partner solutions from (rho0, 0) and from (0, 1/rho0), then
        # their momenta m beta_x', m5 u1', m5 u2'; Phi apart (finite with them)
        self.states = np.array([p[0] * bx0 + q[0] * y0 + v[0], u1, u2,
                                r[0] * bx0 + s[0] * y0 + w[0], rho0 * r[1], s[1] / rho0])
        self.phi = np.unwrap(np.arctan2(u2, u1))
        _require_finite(self.states, edges, "auxiliary state")

    def _fit(self, kinks):
        """The series of every step from one kernel pass over the edges and
        just inside the right edges that are kinks, and a constant one at T
        (step length 1), so that every edge reads its own state at s = 0."""
        edges, y = self.edges, self.states
        n = edges.size - 1
        kinked = np.flatnonzero(np.isin(edges[1:], kinks)) + 1
        t = np.concatenate((edges, np.nextafter(edges[kinked], -np.inf)))
        cols = np.concatenate((np.arange(n + 1), kinked))
        dy, ddy = _slopes(self.oscillator.at(t), np.take(y, cols, axis=1))
        _require_finite((dy, ddy), t, "auxiliary state derivative")
        right = np.arange(1, n + 1)
        right[kinked - 1] = np.arange(n + 1, n + 1 + kinked.size)
        h = np.diff(edges)
        self._h = np.append(h, 1.0)
        self.series = np.zeros((6, 6, n + 1))
        self.series[0, :, n] = y[:, n]
        _hermite(y[:, :-1], h * dy[:, :n], h * h * ddy[:, :n], y[:, 1:],
                 h * np.take(dy, right, axis=1), h * h * np.take(ddy, right, axis=1),
                 self.series[..., :n])

    def _defect(self, nodes):
        """Per step, the error estimate h |y_H' - G y_H - F| / 1.5 of the
        series y_H at the two outer Gauss nodes, each relative to
        max(1, |y_H|): the slope of the quintic's error s^3 (1 - s)^3 there
        is about 1.5/h times its peak."""
        h = self._h[:-1]
        y, dy = np.einsum("vnj,jik->vink", _DEFECT_POWERS, self.series[..., :-1])
        b, c, g = (np.stack((x, z), axis=1) for x, z in zip(nodes[0], nodes[2]))
        defect = dy / h - _field(b, c, g[0], y)
        return np.max(np.abs(defect) / np.maximum(1.0, np.abs(y)), axis=(0, 1)) * h / 1.5

    def _locate(self, t):
        """(t as a 1-d array, the step of each time, s = tau/h in it; T is
        s = 0 of the last edge); a t with more than one axis is a DomainError."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.ndim > 1:
            raise DomainError(f"t must be a scalar or a 1-d array, got shape {t.shape}")
        _require_in_horizon(t, self.edges[-1])
        k = np.minimum(np.searchsorted(self.edges, t, side="right") - 1, self.edges.size - 1)
        return t, k, (t - self.edges[k]) / self._h[k]

    def _linear(self, t, rows=slice(None)):
        """(t as a 1-d array, the step of each time, and the linear states of
        ``rows`` there off the series of its step by Horner's rule)."""
        t, k, s = self._locate(t)
        series = self.series[:, rows]
        # np.take: a fancy index on the last axis returns the transposed layout
        linear = np.take(series[5], k, axis=-1)
        for c in np.take(series[4::-1], k, axis=-1):
            linear *= s
            linear += c
        return t, k, linear

    def _states(self, t, kernel=None):
        """[beta_x, beta_x_dot, rho, rho_dot, Phi] at the times t as a 1-d
        array, from the series of their steps, and the EffectiveQuantities
        there (evaluated unless given); Lambda is _lambda's."""
        t, k, (bx, u1, u2, y, q1, q2) = self._linear(t)
        kernel = self.oscillator.at(t) if kernel is None else kernel
        u10, u20 = self.states[1:3, k]
        phi0 = self.phi[k]
        rho = np.hypot(u1, u2)
        out = [bx, y / kernel.m, rho, (u1 * q1 + u2 * q2) / (kernel.m5 * rho),
               phi0 + np.arctan2(u10 * u2 - u20 * u1, u10 * u1 + u20 * u2)]
        _require_finite(out, t, "auxiliary state")
        return out, kernel

    def _phase_integral(self, a, h):
        """int (a_0 + ell) over each [a, a + h] of the 1-d a and h, no step edge
        inside, by the 5-node Gauss rule: (beta_x, m beta_x') at the nodes off the
        series, the rest from one kernel pass there; einsum: @ starts BLAS."""
        nodes, _, (bx, y) = self._linear((a + h * _PHASE_NODES[:, None]).ravel(), [0, 3])
        k = self.oscillator.at(nodes)
        f = k.alpha_0 + _energy_offset(k.m, k.omega, k.alpha_x, k.alpha_p, k.alpha_xp,
                                       bx, _beta_p(k, bx, y / k.m))
        _require_finite(f, nodes, "auxiliary state")
        return h * np.einsum("n,nk->k", _PHASE_WEIGHTS, f.reshape(5, -1))

    @functools.cached_property
    def _breaks(self):
        """(the breaks, Lambda there), built on first read: the step edges and
        the knots of tabulated coefficients inside (0, T), where the integrand
        may not be smooth, and the running sum of the integrals between them."""
        knots = [t for key in _COEFF_KEYS for t in getattr(self.params, key).knots]
        knots = np.clip(knots, 0.0, self.edges[-1])    # those outside repeat 0 or T
        breaks = _drop_repeats(np.sort(np.concatenate((self.edges, knots))))
        lam = np.pad(np.cumsum(self._phase_integral(breaks[:-1], np.diff(breaks))), (1, 0))
        _require_finite(lam, breaks, "auxiliary state")
        return breaks, lam

    def _lambda(self, t):
        """Lambda at the times t as a 1-d array: Lambda at the last break up
        to each time plus the integral from there."""
        t = self._locate(t)[0]
        breaks, lam = self._breaks
        k = np.searchsorted(breaks, t, side="right") - 1
        return lam[k] + self._phase_integral(breaks[k], t - breaks[k])

    def _assemble(self, kernel, states, t):
        """Propagator coefficients at time(s) t, scalars for a scalar t, from the
        EffectiveQuantities and the states (beta_x, beta_x_dot, rho,
        rho_dot, Phi) at the 1-d times of t, and the values at 0.

        Product, by einsum on stacked 2x2 matrices from the right, of scaling
        by gamma, a pi/4 rotation in the metric eta = m(0) w(0) (a constant
        matrix, as is its inverse), the Ermakov shear-scale, the rotation by the
        accumulated phase Phi, and the inverse pi/4 rotation.
        """
        eta0, rho0 = self.oscillator.eta0, self.rho0
        bx_t, bxd_t, rho, rho_dot, phi = states
        g = np.sqrt(eta0 / (kernel.m * kernel.omega))
        zero = np.zeros_like(g)
        a_d = np.array([[g, zero], [zero, 1.0 / g]])
        a_e = _rot(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0), eta0)
        a_f = np.array([[rho / rho0, zero], [kernel.m5 * rho_dot / rho0, rho0 / rho]])
        a_7 = _rot(np.cos(phi), np.sin(phi), 1.0 / rho0 ** 2)
        a_e_inv = _rot(math.cos(-math.pi / 4.0), math.sin(-math.pi / 4.0), eta0)

        (a, b), (d, e) = _mul(a_d, _mul(a_e, _mul(a_f, _mul(a_7, a_e_inv))))
        ts = np.array(t, dtype=float, ndmin=1)
        return PropagatorCoefficients(
            *_scalar_or_array(t, (ts, a, b, d, e, bx_t, _beta_p(kernel, bx_t, bxd_t))),
            *self.beta_0)

    def at(self, t):
        """(beta_x, beta_x_dot, beta_p, rho, rho_dot, Phi, Lambda) at t, off
        the series of its step; Lambda from the breaks' sums, built on first use."""
        (bx, bxd, *ermakov), kernel = self._states(t)
        return _scalar_or_array(t, (bx, bxd, _beta_p(kernel, bx, bxd), *ermakov,
                                    self._lambda(t)))

    def constraint_residual(self):
        """|beta_p - m(-beta_x_dot + 2 a_xp beta_x + a_p)| on the grid, with
        beta_p the coefficients' and (beta_x, beta_x_dot) the series'."""
        p, ts = self.params, self.grid
        (bx, bxd, *_), _ = self._states(ts)
        predicted = p.m.value(ts) * (-bxd + 2.0 * p.alpha_xp.value(ts) * bx
                                     + p.alpha_p.value(ts))
        return np.abs(self.coeffs.beta_p_t - predicted)

    def coefficients_at(self, t):
        return coefficients(self.params, self, None, t)

    def moments(self, initial):
        return propagate_moments(initial, self.coeffs)

    def moments_at(self, initial, t):
        return propagate_moments(initial, self.coefficients_at(t))

    def global_phase(self, t=None):
        """Accumulated scalar phase -Lambda(t)/hbar, on the grid by default."""
        t = self.grid if t is None else t
        return _scalar_or_array(t, (-self._lambda(t) / self.params.hbar,))[0]


def coefficients(params, sol, _, t):
    """Propagator coefficients at time(s) t, off the series of their steps
    of the solution ``sol``: scalars for a scalar t, else arrays.

    ``params`` and the third argument are not read. They keep t at index 3,
    where perfbench/tracing.py reads its point count, until the tracer reads
    a run record."""
    states, kernel = sol._states(t)
    return sol._assemble(kernel, states, t)


# -- moments ----------------------------------------------------------------


def gaussian_density(state, x_grid):
    """Normal position density of a Gaussian state on x_grid.

    A MomentState at one time gives one row; one over a grid gives the
    (len(t), len(x_grid)) block, equal bit for bit to the stacked rows of
    its states. A variance that is not positive (NaN included) is a
    ValidityError at the first such time.
    """
    on_grid = np.ndim(state.t) > 0
    mean_x, var_x = state.mean_x, state.var_x
    bad = np.flatnonzero(~(np.asarray(var_x) > 0.0))
    if bad.size:
        t = state.t[bad[0]] if on_grid else state.t
        raise ValidityError("position variance must be positive for a density",
                            t=float(t), constraint="var_x > 0")
    if on_grid:
        mean_x, var_x = mean_x[:, None], var_x[:, None]
    x = np.asarray(x_grid, dtype=float)
    return np.exp(-((x - mean_x) ** 2) / (2.0 * var_x)) \
        / np.sqrt(2.0 * math.pi * var_x)


def solve_ermakov(params, grid):
    """The auxiliary solve as a PipelineSolution sampled on the 1-d grid,
    extended by 0 and T (a DomainError past them or for another shape).

    With no ``validate`` scan, a ValidityError names the time and the
    constraint where m, omega, w + kappa or w^2 - kappa^2 first stops being
    positive (see PipelineSolution)."""
    return PipelineSolution(params, grid)


# one grid solve under two names, kept only because perfbench/tracing.py
# patches both until the tracer reads a run record
solve_beta = solve_ermakov


def solve(params, n_samples=PIPELINE_SAMPLES):
    """Validate the parameters and run the grid solve on n_samples uniform
    times of [0, T]."""
    if not isinstance(n_samples, (int, np.integer)) or isinstance(n_samples, bool) \
            or n_samples < 2:
        raise DomainError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    validate(params).raise_if_invalid()
    return solve_ermakov(params, np.linspace(0.0, params.horizon, n_samples))


# -- independent residual checks --------------------------------------------


def _five_point_residual(sol, rows, residual):
    """Max |residual(kernel, y'', *states[rows])| over stencil times tt in
    [2h, T - 2h], h = T/4096, with the solution's states and
    EffectiveQuantities at tt, where y'' is the five-point central
    difference of the last of the rows. Times whose span [tt - 2h, tt + 2h]
    holds a kink of the coefficients (a knot of an order-1 table, where
    second derivatives jump) are left out; NaN if none is left."""
    T = sol.params.horizon
    h = T / 4096.0
    tt = np.linspace(2.0 * h, T - 2.0 * h, 257)
    kinks = _kinks(sol.params)
    tt = tt[np.searchsorted(kinks, tt - 2 * h) == np.searchsorted(kinks, tt + 2 * h, "right")]
    if not tt.size:
        return math.nan
    # one pass over the stencil times tt + 2h, tt + h, tt, tt - h, tt - 2h
    states, kernel = sol._states((tt + np.arange(2.0, -3.0, -1.0)[:, None] * h).ravel())
    states = np.reshape(states, (-1, 5, tt.size))
    y2, y1, _, y_1, y_2 = states[rows.stop - 1]
    dd = (-y2 + 8.0 * y1 - 8.0 * y_1 + y_2) / (12.0 * h)
    centre = kernel._make(np.reshape(x, (5, -1))[2] for x in kernel)
    return float(np.abs(residual(centre, dd, *states[rows, 2])).max())


def ermakov_residual(sol):
    """Max Ermakov-equation residual, with the second derivative taken by a
    five-point central difference of the integrated rho_dot channel."""
    def residual(k, rho_dd, rho, rho_dot):
        return (rho_dd + k.m5_log_dot * rho_dot + k.omega5_sq * rho
                - 1.0 / (k.m5 * k.m5 * rho ** 3))

    return _five_point_residual(sol, slice(2, 4), residual)


def beta_ode_residual(sol):
    """Max second-order displacement-equation residual via a five-point
    central difference of the integrated beta_x_dot channel."""
    def residual(kernel, bxdd, bx, bxd):
        mlog, coeff, forcing = _displacement_terms(kernel)
        return bxdd + mlog * bxd - coeff * bx - forcing

    return _five_point_residual(sol, slice(0, 2), residual)
