"""tdqho benchmark: one closed-loop client driving the package in-process.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py, and BENCHMARK.json for why each exists):
ensemble and cli. Each run imports ``tdqho`` from ``src/``
next to this directory, builds its inputs from ``--seed``, and checks every
operation against the acceptance suite's own bounds. The next operation
starts when the previous one (and its check) has finished.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time,
operations per second, median and tail operation latency, and peak resident
memory. One set-up is importing tdqho, generating the inputs and running one
untimed warm-up operation in a fresh interpreter; the run makes SETUPS of
them (its own and SETUPS - 1 child processes) and reports the median.

``--trace 1`` runs a fixed list of operations twice, untraced then traced,
and reports the per-layer metrics of tracing.py plus the ratio of the two
wall times.

The last line of standard output is one JSON object; the lines above it
repeat every metric with its unit and the details behind it. Full results,
CSV digests and, when traced, every span go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# numpy is imported only inside functions that run after tdqho is imported,
# so the timed import of tdqho includes numpy's and scipy's.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 3
TAIL_Q = 75.0    # percentile reported as op_tail_ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true",
                   help="one set-up and the fewest traced operations (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print its time and failures, and exit")
    return p.parse_args(argv)


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Runner:
    """Runs operations one after another and checks each one."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, i):
        """Run operation i; returns (seconds, parts), or None if it raised."""
        wl, tracer = self.workload, self.tracer
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            parts, result = tracer.op_span(i, wl.call, i) if tracer else wl.call(i)
        except Exception:
            self.fail(i, [traceback.format_exc(limit=3)])
            return None
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        try:
            problems = wl.check(i, result)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        finally:
            if tracer:
                tracer.enabled = True
        if problems:
            self.fail(i, problems)
        return seconds, parts

    def fail(self, i, problems):
        self.failed += 1
        self.problems.append({"op": i, "problems": problems})
        print(f"operation {i} failed: {problems}", file=sys.stderr)


def child_setup(args):
    """One set-up in a fresh interpreter: (seconds, attempted, failed)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=170)
    out = json.loads(done.stdout.splitlines()[-1])
    return out["setup_s"], out["attempted"], out["failed"]


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def measure(workload, runner, seconds, setup_s):
    """Closed loop for ``seconds``; returns (metrics, extras, latencies)."""
    latencies, parts = [], defaultdict(list)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    i = 0
    while i < workload.min_ops or time.perf_counter() - wall0 < seconds:
        done = runner.run(i)
        i += 1
        if done:
            latencies.append(done[0])
            for name, samples in done[1].items():
                parts[name] += samples
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if not latencies:
        raise RuntimeError("no operation completed")
    n = len(latencies)
    tail_s = percentile(latencies, TAIL_Q)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} set-ups {[round(s, 4) for s in setup_s]}"),
        "ops_per_s": (i / wall, "1/s", f"{i} operations in {wall:.3f} s wall"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", f"median of {n} operations"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"p{TAIL_Q:g} of {n} operations, "
                       f"{sum(s > tail_s for s in latencies)} above it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident memory of this process"),
    }
    extras = {
        "error_rate": (runner.failed / runner.attempted, "ratio",
                       f"{runner.failed} failed of {runner.attempted} attempted, "
                       "warm-up operations included"),
        "wall_s": (wall, "s", "timed loop"),
        "cpu_s": (cpu, "s", f"process CPU time, {cpu / wall:.3f} of wall"),
    }
    for name, samples in parts.items():
        extras[f"{name}_p50_ms"] = (statistics.median(samples) * 1e3, "ms",
                                    f"median of {len(samples)}")
    return metrics, extras, latencies


def traced(workload, runner, tracer):
    """Untraced then traced pass over the same operations."""
    from tracing import PER_LAYER
    ops = range(workload.trace_ops)
    t0 = time.perf_counter()
    for i in ops:
        runner.run(i)
    untraced = time.perf_counter() - t0
    runner.tracer = tracer
    undo = tracer.patch()
    tracer.enabled = True
    try:
        t0 = time.perf_counter()
        for i in ops:
            runner.run(i)
        with_trace = time.perf_counter() - t0
    finally:
        tracer.enabled = False
        tracer.unpatch(undo)
    values, by_span = tracer.layer_metrics()
    values["trace.overhead"] = with_trace / untraced
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name], "") for name, _ in PER_LAYER}
    extras = {"untraced_wall_s": (untraced, "s", f"{len(ops)} operations"),
              "traced_wall_s": (with_trace, "s", f"{len(ops)} operations")}
    return metrics, extras, by_span


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tdqho" / "__init__.py").is_file():
        print(f"perfbench: tdqho sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tdqho.cli          # imports every tdqho module the workloads call
    import_s = time.perf_counter() - t0
    if Path(tdqho.__file__).resolve().parent != SRC / "tdqho":
        print(f"perfbench: imported tdqho from {tdqho.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    if args.quick:
        workload.trace_ops = workload.min_ops
    runner = Runner(workload)
    t0 = time.perf_counter()
    workload.make_inputs()
    runner.run(-1)
    setup_s = [import_s + time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0], "attempted": runner.attempted,
                          "failed": runner.failed}))
        return 0

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        metrics, extras, by_span = traced(workload, runner, tracer)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        record["spans"] = by_span
        record["trace_file"] = str(trace_file.relative_to(HERE.parent))
    else:
        for _ in range(0 if args.quick else SETUPS - 1):
            seconds, attempted, failed = child_setup(args)
            setup_s.append(seconds)
            runner.attempted += attempted
            runner.failed += failed
        metrics, extras, latencies = measure(workload, runner, args.seconds, setup_s)
        record["latencies_s"] = latencies
    digests = getattr(workload, "digest_log", [])
    if digests:
        record["csv_sha256"] = digests
    record["attempted"], record["failed"] = runner.attempted, runner.failed
    record["problems"] = runner.problems
    record["metrics"] = {k: {"value": v, "unit": u, "detail": d}
                         for k, (v, u, d) in {**metrics, **extras}.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment: " + json.dumps(env))
    for name, (value, unit, detail) in {**metrics, **extras}.items():
        print(f"{name} = {_fmt(value)} {unit}" + (f"  ({detail})" if detail else ""))
    for entry in digests:
        print(f"csv sha256, operation {entry['op']} ({entry['dir']}): "
              + ", ".join(f"{k} {v[:16]}" for k, v in entry["sha256"].items()))
    if args.trace:
        for name, s in sorted(by_span.items()):
            print(f"span {name}: {s['spans']} spans, {s['total_s']:.4f} s total, "
                  f"{s['self_s']:.4f} s self")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
