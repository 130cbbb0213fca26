"""The benchmark's two workloads: seeded inputs, one operation, its checks.

Each workload builds its inputs from the seed alone, so the program sees
only generated inputs. Parameter sets are drawn from a scrambled Sobol
sequence seeded by ``--seed``: every coordinate keeps exactly the marginal
distribution of the acceptance suite's random family (uniform ranges and
fair coin flips), but the first 2, 4, 8, ... sets of a run split every range
into that many equal strata, one set in each. The cost of one set spreads
several-fold across the family; stratified draws keep the mean cost of the
sets a run gets through nearly the same from seed to seed.

Every operation calls the program through module attributes
(``tdqho.pipeline.solve`` and so on), so the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import tdqho
import tdqho.cli
import tdqho.model
import tdqho.pipeline

TWO_PI = 2.0 * math.pi

# Bounds copied from the acceptance suite (criterion 5) and from
# tdqho.model.UNCERTAINTY_SLACK. Never loosen them.
DET_TOL = 1e-9
UNCERTAINTY_SLACK = 1e-9


def stratified_draws(rng, n, dim):
    """n (a power of 2) scrambled Sobol points in [0, 1)^dim."""
    return qmc.Sobol(dim, scramble=True, seed=rng).random(n)


def _uniform(u, lo, hi):
    return lo + (hi - lo) * float(u)


def _coin(u):
    return bool(u >= 0.5)


def _uncertainty_ok(mt, hbar):
    return bool(np.all(mt.var_x * mt.var_p - mt.cov_xp ** 2
                       >= hbar ** 2 / 4.0 - UNCERTAINTY_SLACK))


def _det_err(c):
    return float(np.max(np.abs(c.A * c.E - c.B * c.D - 1.0)))


class Workload:
    """One closed-loop client: ``call`` is timed, ``check`` is not.

    ``build`` turns one point of [0, 1)^dim into one input. ``call(i)``
    runs operation i (i < 0 is the warm-up, on the input built from the
    middle of every range) and returns ``(parts, result)``: named lists of
    sub-timings in seconds, and whatever ``check`` needs. ``check`` returns
    a list of problems, empty when the operation is correct.
    """

    name = ""
    dim = 0
    n_inputs = 0     # a power of 2
    min_ops = 1      # fewest timed operations in a run
    trace_ops = 1    # operations in the traced pass

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.inputs = []
        self.warm = None

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.inputs = [self.build(u, rng)
                       for u in stratified_draws(rng, self.n_inputs, self.dim)]
        self.warm = self.build_warm(rng)

    def build_warm(self, rng):
        return self.build(np.full(self.dim, 0.5), rng)

    def item(self, i):
        return self.warm if i < 0 else self.inputs[i % len(self.inputs)]

    def build(self, u, rng):
        raise NotImplementedError

    def call(self, i):
        raise NotImplementedError

    def check(self, i, result):
        raise NotImplementedError


# -- ensemble -----------------------------------------------------------------


def criterion5_params(u):
    """Map 22 uniforms onto the criterion-5 family (mixed constant, cosine
    and exponential profiles, nonzero alpha_xp, horizon 10)."""
    w0 = _uniform(u[0], 0.8, 1.5)
    m = {"kind": "exponential", "prefactor": _uniform(u[2], 0.7, 1.5),
         "rate": _uniform(u[3], -0.05, 0.05)} if _coin(u[1]) \
        else _uniform(u[2], 0.7, 1.5)
    omega = {"kind": "exponential", "prefactor": w0,
             "rate": _uniform(u[5], -0.03, 0.03)} if _coin(u[4]) else w0

    def drive(k, max_amp):
        if _coin(u[k]):
            return {"kind": "cosine",
                    "amplitude": _uniform(u[k + 1], -max_amp, max_amp),
                    "angular_frequency": _uniform(u[k + 2], 0.3, 1.5),
                    "phase": _uniform(u[k + 3], 0.0, TWO_PI)}
        return _uniform(u[k + 1], -max_amp, max_amp)

    axp = drive(6, 0.08)
    if isinstance(axp, float) and abs(axp) < 1e-3:
        axp = 0.05
    return tdqho.QuadraticParams.from_dict({
        "m": m, "omega": omega, "alpha_x": drive(10, 0.3),
        "alpha_p": drive(14, 0.3), "alpha_xp": axp, "alpha_0": drive(18, 0.2),
        "horizon": 10.0})


class Ensemble(Workload):
    """One operation is an ensemble of SETS criterion-5 sets, each through
    validate, solve(n_samples=2000), moments on the grid and moments_at at
    QUERIES seeded off-grid times.

    The cost of one set varies about twenty-fold across the family, so the
    latency of single sets has no stable median. Each aligned block of four
    Sobol points puts one set in each quarter of every range, which makes
    every ensemble cost about the same; it is also the unit a batched solver
    would take.
    """

    name = "ensemble"
    dim = 24
    n_inputs = 128
    trace_ops = 2
    SETS = 4
    QUERIES = 256

    def build(self, u, rng):
        params = criterion5_params(u)
        alpha = complex(_uniform(u[22], -0.6, 0.6), _uniform(u[23], -0.6, 0.6))
        init = tdqho.coherent_moments(alpha, params.m.value(0.0),
                                      params.omega.value(0.0), params.hbar)
        queries = np.sort(rng.uniform(0.0, params.horizon, self.QUERIES))
        return params, init, queries

    def make_inputs(self):
        super().make_inputs()
        sets = self.inputs
        self.inputs = [sets[k:k + self.SETS] for k in range(0, len(sets), self.SETS)]

    def build_warm(self, rng):
        return [self.build(np.full(self.dim, (k + 0.5) / self.SETS), rng)
                for k in range(self.SETS)]

    def call(self, i):
        results, queries = [], []
        for params, init, times in self.item(i):
            report = tdqho.model.validate(params)
            sol = tdqho.pipeline.solve(params, n_samples=2000)
            grid_moments = sol.moments(init)
            t0 = time.perf_counter()
            query_moments = sol.moments_at(init, times)
            queries.append(time.perf_counter() - t0)
            results.append((report, sol, grid_moments, query_moments))
        return {"query": queries}, results

    def check(self, i, results):
        problems = []
        for (params, _, times), (report, sol, grid_moments, query_moments) \
                in zip(self.item(i), results):
            if not report.ok:
                problems.append("validate rejected the set")
            if not _det_err(sol.coeffs) < DET_TOL:
                problems.append("|AE - BD - 1| on the grid")
            if not _det_err(sol.coefficients_at(times)) < DET_TOL:
                problems.append("|AE - BD - 1| at query times")
            if not _uncertainty_ok(grid_moments, params.hbar):
                problems.append("uncertainty bound on the grid")
            if not _uncertainty_ok(query_moments, params.hbar):
                problems.append("uncertainty bound at query times")
        return problems


# -- cli ------------------------------------------------------------------------


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Cli(Workload):
    """One pass of a three-command ``tdqho.cli.main`` script.

    Operations come in pairs: both members run the same seeded script, the
    first into directory ``a`` and the second into ``b``, and the second
    compares every CSV byte for byte (by sha256) against the first. The
    sweep runs on a shortened horizon so that one pass takes seconds, not
    tens of seconds, and a run holds several passes; it still starts eight
    threads.
    """

    name = "cli"
    dim = 4
    n_inputs = 64
    min_ops = 2
    trace_ops = 2
    DENSITY = 88
    SAMPLES = 2000
    SWEEP_POINTS = 8
    SWEEP_HORIZON = 6.0
    CSVS = ("moments.csv", "density.csv", "compare.csv", "sweep.csv")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.digests = {}
        self.digest_log = []

    def build(self, u, rng):
        amp = complex(round(_uniform(u[0], -0.6, 0.6), 6),
                      round(_uniform(u[1], -0.6, 0.6), 6))
        return amp, round(_uniform(u[2], 0.6, 0.8), 6), round(_uniform(u[3], 1.2, 1.4), 6)

    def item(self, i):
        return super().item(i if i < 0 else i // 2)

    def script(self, i, out):
        amp, lo, hi = self.item(i)
        out = str(out)
        return (
            ("evolve", ["evolve", "--scenario", "driven", "--density", str(self.DENSITY),
                        "--initial", f"coherent:{amp.real}{amp.imag:+}j", "--out", out]),
            ("compare", ["compare", "--scenario", "ck", "--gamma", "-0.25",
                         "--horizon", "6", "--samples", "250", "--out", out]),
            ("sweep", ["sweep", "--scenario", "driven",
                       "--horizon", str(self.SWEEP_HORIZON),
                       "--sweep", f"omega-d:{lo}:{hi}:{self.SWEEP_POINTS}", "--out", out]),
        )

    def _dir(self, i):
        return self.out_dir / ("warm" if i < 0 else "ab"[i % 2])

    def call(self, i):
        out = self._dir(i)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        parts, codes = {}, {}
        sink = io.StringIO()
        for label, argv in self.script(i, out):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes[label] = tdqho.cli.main(argv)
            parts[label] = [time.perf_counter() - t0]
        return parts, codes

    def check(self, i, codes):
        out = self._dir(i)
        problems = [f"{k} exited {c}" for k, c in codes.items() if c != 0]
        expected = {"moments.csv": self.SAMPLES + 1,
                    "density.csv": self.SAMPLES * self.DENSITY + 1,
                    "compare.csv": 250 + 1,
                    "sweep.csv": self.SWEEP_POINTS + 1}
        for name, rows in expected.items():
            if not (out / name).is_file():
                problems.append(f"{name} missing")
            elif _lines(out / name) != rows:
                problems.append(f"{name} row count")
        if problems:
            return problems
        with open(out / "sweep.csv") as fh:
            statuses = [line.split(",")[1] for line in fh.readlines()[1:]]
        if any(s != "ok" for s in statuses):
            problems.append("sweep point not ok")
        report = json.loads((out / "report.json").read_text())
        if not (report["passed"] and report["reliable"]):
            problems.append("compare report did not pass")
        if i < 0:
            return problems
        digests = {name: _sha256(out / name) for name in self.CSVS}
        if i % 2 == 0:
            self.digests[i] = digests
        elif self.digests.pop(i - 1, None) != digests:
            problems.append("CSV bytes differ from the paired rerun")
        self.digest_log.append({"op": i, "dir": out.name, "sha256": digests})
        return problems


WORKLOADS = {w.name: w for w in (Ensemble, Cli)}
