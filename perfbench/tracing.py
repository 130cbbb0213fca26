"""Tracing from outside the program: patch module attributes, record spans.

Cold boundaries (a solve, an oracle propagation, a CLI command) get one span
each, with name, start, end, parent span and operation id. Hot boundaries
(right-hand-side calls, dense-output lookups, time-function evaluations,
oracle Hamiltonians) keep only a count, a point count and a time, summed per
parent span, so the trace stays small. A hot call made inside another timed
hot call is marked as an overlap, so self times subtract each interval once.

State is per thread, because ``tdqho sweep`` runs its points on a thread
pool; a worker thread's spans hang under the main thread's current span.
On the eight sweep threads, spans overlap and wait for the interpreter lock,
so summed span times on ``cli`` exceed its wall time. ``Tracer.patch``
returns the list needed to undo every patch.

Which end-to-end metric each layer should move, written down before any
optimisation ("no change" is a prediction too):

- integrators (steps, rhs_calls, busy/rhs/self time; dense_* for the
  continuous extension): ensemble ops_per_s and op_p50_ms; cli ops_per_s
  through the sweep (sweep_p50_ms). dense_* also moves ensemble
  query_p50_ms.
- timefunc (scalar and array evaluations): the same as integrators; scalar
  evaluations dominate because every right-hand-side call evaluates each
  coefficient on its own.
- pipeline: ermakov_s and beta_s move ensemble op_p50_ms; coefficients_s
  moves ensemble query_p50_ms; density_s moves cli evolve_p50_ms.
- oracle (exponentials = Hamiltonians = one eigh per Magnus step;
  step_self_s = propagate_s minus its Hamiltonian and moment calls): cli
  compare_p50_ms and, by its share of a pass, cli ops_per_s. No change on
  ensemble, which never calls the oracle.
- model (validate): the control. About a millisecond per call, so it
  should move nothing.
- cli (config_s, write_s, rows and bytes through ``write_csv``; sweep.csv
  is written by its own loop and not counted): cli evolve_p50_ms. No change
  on ensemble.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

import tdqho
import tdqho.cli
import tdqho.integrators
import tdqho.model
import tdqho.oracle
import tdqho.pipeline

TIME_FUNCTIONS = (tdqho.Constant, tdqho.Cosine, tdqho.Exponential,
                  tdqho.Polynomial, tdqho.Tabulated)
EVALUATORS = ("value", "derivative", "second_derivative")
SCALAR_EVALS, ARRAY_EVALS = "timefunc.scalar_evals", "timefunc.array_evals"

# name, unit; the order in which the traced run prints them
PER_LAYER = (
    ("integrators.solves", "count"), ("integrators.steps", "count"),
    ("integrators.rejected", "count"), ("integrators.accept_ratio", "ratio"),
    ("integrators.rhs_calls", "count"), ("integrators.busy_s", "s"),
    ("integrators.rhs_s", "s"), ("integrators.self_s", "s"),
    ("integrators.dense_calls", "count"), ("integrators.dense_points", "count"),
    ("integrators.dense_s", "s"),
    ("timefunc.scalar_evals", "count"), ("timefunc.array_evals", "count"),
    ("pipeline.solve_s", "s"), ("pipeline.beta_s", "s"),
    ("pipeline.ermakov_s", "s"), ("pipeline.coefficients_s", "s"),
    ("pipeline.coefficients_points", "count"), ("pipeline.propagate_s", "s"),
    ("pipeline.density_calls", "count"), ("pipeline.density_s", "s"),
    ("oracle.build_s", "s"), ("oracle.propagate_s", "s"),
    ("oracle.exponentials", "count"), ("oracle.hamiltonian_s", "s"),
    ("oracle.moments_calls", "count"), ("oracle.moments_s", "s"),
    ("oracle.step_self_s", "s"),
    ("model.validate_calls", "count"), ("model.validate_s", "s"),
    ("cli.config_s", "s"), ("cli.write_s", "s"),
    ("cli.rows_written", "count"), ("cli.bytes_written", "count"),
    ("trace.overhead", "ratio"),
)


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.depth = 0                                    # open timed hot calls
        self.hot = defaultdict(lambda: [0, 0, 0.0])       # (parent, name, overlap)
        self.counts = defaultdict(int)


class Tracer:
    """Spans and aggregates of one traced pass; ``enabled`` gates every
    wrapper, so checks between operations stay out of the trace."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []         # (id, name, parent, op, start, end)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()

    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _parent(self, st):
        stack = st.stack or self._main.stack
        return stack[-1] if stack else 0

    def count(self, name, n):
        self._state().counts[name] += n

    # -- boundaries --------------------------------------------------------

    def cold(self, name, fn, on_return=None):
        """Span per call; ``on_return(args, result)`` may add counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            st = self._state()
            parent = self._parent(st)
            sid = next(self._ids)
            st.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                self.spans.append((sid, name, parent, self.op, t0, t1))
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def hot(self, name, fn, points=None):
        """Aggregated count, points and time per parent span."""
        @functools.wraps(fn)
        def wrapper(*args):
            if not self.enabled:
                return fn(*args)
            st = self._state()
            # inside another timed hot call, or on a sweep thread outside any
            # span of its own: counted, but not taken off a parent's self time
            overlap = st.depth > 0 or not (st.stack or st is self._main)
            st.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                st.depth -= 1
                agg = st.hot[(self._parent(st), name, overlap)]
                agg[0] += 1
                agg[1] += points(args) if points else 1
                agg[2] += dt
        return wrapper

    def evaluator(self, fn):
        """Time-function evaluator: counted per parent span, not timed."""
        @functools.wraps(fn)
        def wrapper(obj, t):
            if self.enabled:
                st = self._state()
                name = ARRAY_EVALS if getattr(t, "ndim", 0) else SCALAR_EVALS
                st.hot[(self._parent(st), name, False)][0] += 1
            return fn(obj, t)
        return wrapper

    def op_span(self, op, fn, *args):
        """Run ``fn(*args)`` as operation ``op``; its span is the root."""
        self.op = op
        return self.cold("op", fn)(*args)

    # -- patching -------------------------------------------------------------

    def _integrate(self, fn):
        def traced(system, *args, **kwargs):
            f = self.hot("integrators.rhs", system.f)
            sol = fn(dataclasses.replace(system, f=f), *args, **kwargs)
            self.count("integrators.steps", sol.stats.steps)
            self.count("integrators.rejected", sol.stats.rejected)
            return sol
        return self.cold("integrators.integrate_adaptive", traced)

    def _write_csv(self, fn):
        def on_return(args, _):
            self.count("cli.rows_written", len(args[2]))
            self.count("cli.bytes_written", os.path.getsize(args[0]))
        return self.cold("cli.write_csv", fn, on_return)

    def patch(self):
        """Install every wrapper; returns the (owner, attr, original) list."""
        pipe, orc, cli = tdqho.pipeline, tdqho.oracle, tdqho.cli
        validate = self.cold("model.validate", tdqho.model.validate)

        def coefficient_points(args, _):
            self.count("pipeline.coefficients_points", int(np.size(args[3])))

        plan = [
            (tdqho.model, "validate", validate),
            (pipe, "validate", validate),
            (pipe, "integrate_adaptive", self._integrate(pipe.integrate_adaptive)),
            (pipe, "solve", self.cold("pipeline.solve", pipe.solve)),
            (pipe, "solve_beta", self.cold("pipeline.solve_beta", pipe.solve_beta)),
            (pipe, "solve_ermakov", self.cold("pipeline.solve_ermakov", pipe.solve_ermakov)),
            (pipe, "coefficients", self.cold("pipeline.coefficients", pipe.coefficients,
                                             coefficient_points)),
            (pipe, "propagate_moments", self.cold("pipeline.propagate_moments",
                                                  pipe.propagate_moments)),
            (pipe, "gaussian_density", self.hot("pipeline.gaussian_density",
                                                pipe.gaussian_density)),
            (orc, "build_operators", self.cold("oracle.build_operators", orc.build_operators)),
            (orc, "propagate_state", self.cold("oracle.propagate_state", orc.propagate_state)),
            (orc, "hamiltonian_matrix", self.hot("oracle.hamiltonian_matrix",
                                                 orc.hamiltonian_matrix)),
            (orc, "moments_from_state", self.hot("oracle.moments_from_state",
                                                 orc.moments_from_state)),
            (cli, "main", self.cold("cli.main", cli.main)),
            (cli, "build_run_config", self.cold("cli.build_run_config", cli.build_run_config)),
            (cli, "write_csv", self._write_csv(cli.write_csv)),
            (tdqho.integrators.DenseOutput, "__call__",
             self.hot("integrators.dense", tdqho.integrators.DenseOutput.__call__,
                      points=lambda args: int(np.size(args[1])))),
        ]
        for cls in TIME_FUNCTIONS:
            plan += [(cls, name, self.evaluator(cls.__dict__[name]))
                     for name in EVALUATORS if name in cls.__dict__]
        undo = []
        for owner, attr, wrapper in plan:
            undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                         else owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return undo

    @staticmethod
    def unpatch(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def hot_totals(self):
        """(parent, name, overlap) -> [count, points, time], all threads."""
        out = defaultdict(lambda: [0, 0, 0.0])
        for st in self._states:
            for key, (n, pts, t) in st.hot.items():
                agg = out[key]
                agg[0] += n
                agg[1] += pts
                agg[2] += t
        return out

    def counts(self):
        out = defaultdict(int)
        for st in self._states:
            for name, n in st.counts.items():
                out[name] += n
        return out

    def self_times(self, hot):
        """Span id -> duration minus the part of it that child spans cover
        (children on sweep threads overlap) and minus top-level hot time."""
        children = defaultdict(list)
        for _, _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        own = {}
        for sid, _, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children[sid]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[sid] = end - start - covered
        for (parent, _, overlap), (_, _, t) in hot.items():
            if parent in own and not overlap:
                own[parent] -= t
        return own

    def layer_metrics(self):
        """Every per-layer metric except trace.overhead."""
        hot = self.hot_totals()
        counts = self.counts()
        selfs = self.self_times(hot)
        span_s = defaultdict(float)
        span_n = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, _, _, start, end in self.spans:
            span_s[name] += end - start
            span_n[name] += 1
            self_s[name] += selfs[sid]
        hot_n = defaultdict(int)
        hot_pts = defaultdict(int)
        hot_s = defaultdict(float)
        for (_, name, _), (n, pts, t) in hot.items():
            hot_n[name] += n
            hot_pts[name] += pts
            hot_s[name] += t
        steps = counts["integrators.steps"]
        attempts = steps + counts["integrators.rejected"]
        return {
            "integrators.solves": span_n["integrators.integrate_adaptive"],
            "integrators.steps": steps,
            "integrators.rejected": counts["integrators.rejected"],
            "integrators.accept_ratio": steps / attempts if attempts else 1.0,
            "integrators.rhs_calls": hot_n["integrators.rhs"],
            "integrators.busy_s": span_s["integrators.integrate_adaptive"],
            "integrators.rhs_s": hot_s["integrators.rhs"],
            "integrators.self_s": self_s["integrators.integrate_adaptive"],
            "integrators.dense_calls": hot_n["integrators.dense"],
            "integrators.dense_points": hot_pts["integrators.dense"],
            "integrators.dense_s": hot_s["integrators.dense"],
            "timefunc.scalar_evals": hot_n["timefunc.scalar_evals"],
            "timefunc.array_evals": hot_n["timefunc.array_evals"],
            "pipeline.solve_s": span_s["pipeline.solve"],
            "pipeline.beta_s": span_s["pipeline.solve_beta"],
            "pipeline.ermakov_s": span_s["pipeline.solve_ermakov"],
            "pipeline.coefficients_s": span_s["pipeline.coefficients"],
            "pipeline.coefficients_points": counts["pipeline.coefficients_points"],
            "pipeline.propagate_s": span_s["pipeline.propagate_moments"],
            "pipeline.density_calls": hot_n["pipeline.gaussian_density"],
            "pipeline.density_s": hot_s["pipeline.gaussian_density"],
            "oracle.build_s": span_s["oracle.build_operators"],
            "oracle.propagate_s": span_s["oracle.propagate_state"],
            "oracle.exponentials": hot_n["oracle.hamiltonian_matrix"],
            "oracle.hamiltonian_s": hot_s["oracle.hamiltonian_matrix"],
            "oracle.moments_calls": hot_n["oracle.moments_from_state"],
            "oracle.moments_s": hot_s["oracle.moments_from_state"],
            "oracle.step_self_s": self_s["oracle.propagate_state"],
            "model.validate_calls": span_n["model.validate"],
            "model.validate_s": span_s["model.validate"],
            "cli.config_s": span_s["cli.build_run_config"],
            "cli.write_s": span_s["cli.write_csv"],
            "cli.rows_written": counts["cli.rows_written"],
            "cli.bytes_written": counts["cli.bytes_written"],
        }, {name: {"spans": span_n[name], "total_s": span_s[name], "self_s": self_s[name]}
            for name in span_n}

    def dump(self):
        """JSON-ready spans and hot aggregates."""
        return {
            "spans": [{"id": sid, "name": name, "parent": parent, "op": op,
                       "start": start, "end": end}
                      for sid, name, parent, op, start, end in self.spans],
            "hot": [{"parent": parent, "name": name, "overlap": overlap,
                     "count": n, "points": pts, "time_s": t}
                    for (parent, name, overlap), (n, pts, t) in sorted(self.hot_totals().items())],
        }
