"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``validate`` and
``static-diag`` wrap the model checks, ``evolve`` runs the analytic
pipeline, ``oracle`` runs the Fock-basis propagator, ``compare`` joins the
two (or the exact and rotating-wave closed forms), and ``sweep`` scans one
scalar parameter point by point.

All numeric output is CSV whose cells are exactly Python's '%.17g', made in
numpy by csvtext, so re-running an identical configuration reproduces
files byte for byte.
Exit codes: 0 success, 2 configuration error, 3 validity error,
4 comparison failure, 5 unreliable oracle run.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import csvtext, pipeline, staticdiag
from .errors import (ConfigError, DomainError, IntegrationError,
                     SingularityError, ValidityError)
from .model import (MomentState, QuadraticParams, coherent_moments,
                    ground_moments, validate)
from .scenarios import (CKSpec, DrivenSpec, driven_moments_exact,
                        driven_moments_rwa)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_COMPARISON = 4
EXIT_UNRELIABLE = 5

MOMENT_COLUMNS = ("t", "mean_x", "mean_p", "sigma_x", "sigma_p", "cov_xp",
                  "uncertainty_product", "A", "B", "D", "E", "rho", "Phi",
                  "beta_x", "beta_p", "global_phase")
COMPARE_SERIES = ("mean_x", "mean_p", "var_x", "var_p", "cov_xp")
CSV_BLOCK_CELLS = 1 << 13     # cells per block of CSV text: about 2 MB of temporaries


def _cell_columns(rows):
    """The csvtext cells of each column of rows; a column whose first cell
    is a str holds its text, NUL-padded to its longest."""
    if isinstance(rows, np.ndarray) or not any(isinstance(c, str) for c in rows[0]):
        rows = np.asarray(rows, dtype=np.float64)
        return list(csvtext.cells(rows).reshape(*rows.shape, -1).swapaxes(0, 1))
    return [np.array([str(c).encode() for c in col]).view(np.uint8).reshape(len(col), -1)
            if isinstance(col[0], str) else csvtext.cells(col) for col in zip(*rows)]


def write_csv(path, columns, rows):
    """Write a 2-d array or a list of row tuples as CSV, making its directory:
    csvtext's '%.17g' cells, or str cells as they are, in blocks."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    step = max(1, CSV_BLOCK_CELLS // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for r in range(0, len(rows), step):
            fh.write(csvtext.lines(_cell_columns(rows[r:r + step])))


def _write_density_csv(path, times, xs, block):
    """Write block[i, j] as time-major (t, x, value) rows, the bytes of
    write_csv: t and x cells broadcast against blocks of value cells."""
    t_cells, x_cells = csvtext.cells(times), csvtext.cells(xs)
    step = max(1, CSV_BLOCK_CELLS // len(xs))
    with open(path, "wb") as fh:
        fh.write(b"t,x,value\n")
        for r in range(0, len(times), step):
            values = csvtext.cells(block[r:r + step]).reshape(-1, len(xs), csvtext.CELL_WIDTH)
            fh.write(csvtext.lines([t_cells[r:r + step, None], x_cells, values]))


# -- config assembly ---------------------------------------------------------


def _check_samples(args):
    if args.samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {args.samples}")


@dataclass(frozen=True)
class RunConfig:
    params: QuadraticParams
    initial: MomentState
    coherent_amplitude: complex | None   # 0j for ground, None for moments
    samples: int
    out_dir: Path
    scenario: object           # DrivenSpec | CKSpec | None


def _parse_initial(text, params):
    m0 = params.m.value(0.0)
    w0 = params.omega.value(0.0)
    if not (m0 > 0.0 and w0 > 0.0):
        raise ValidityError(
            f"m(0) = {m0:.6g} and omega(0) = {w0:.6g} must both be positive",
            t=0.0, constraint="m > 0, omega > 0")
    if text == "ground":
        return ground_moments(m0, w0, params.hbar), 0j
    if text.startswith("coherent:"):
        try:
            amp = complex(text[len("coherent:"):])
        except ValueError:
            raise ConfigError(f"bad coherent amplitude in {text!r}") from None
        if not cmath.isfinite(amp):
            raise ConfigError(f"--initial: coherent amplitude must be finite, got {text!r}")
        return coherent_moments(amp, m0, w0, params.hbar), amp
    if text.startswith("moments:"):
        parts = text[len("moments:"):].split(",")
        if len(parts) != 5:
            raise ConfigError("moments initial state needs x,p,var_x,var_p,cov_xp")
        try:
            x, p, vx, vp, cv = (float(s) for s in parts)
        except ValueError:
            raise ConfigError(f"bad number in {text!r}") from None
        try:
            state = MomentState(0.0, x, p, vx, vp, cv).check(params.hbar)
        except ValidityError as exc:
            raise ConfigError(f"initial moments are unphysical: {exc}") from None
        return state, None
    raise ConfigError(f"unknown initial state {text!r}; "
                      "use ground, coherent:<amplitude>, or moments:<5 numbers>")


def _build_scenario(args):
    if args.scenario == "driven":
        omega_d = args.omega * 1.0 if args.omega_d is None else args.omega_d
        return DrivenSpec(m=args.m, omega=args.omega, drive_strength=args.strength,
                          drive_frequency=omega_d, hbar=args.hbar,
                          horizon=args.horizon)
    if args.scenario == "ck":
        gamma = -args.omega / 4.0 if args.gamma is None else args.gamma
        return CKSpec(m=args.m, omega=args.omega, gamma=gamma, hbar=args.hbar,
                      horizon=args.horizon)
    raise ConfigError(f"unknown scenario {args.scenario!r}; use driven or ck")


def _model(args):
    """(params, scenario) from --config or a --scenario preset."""
    if (args.config is None) == (args.scenario is None):
        raise ConfigError("exactly one of --config and --scenario is required")
    scenario = None
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        params = QuadraticParams.from_json(text)
        if args.horizon is not None:
            params = params.with_horizon(args.horizon)
    else:
        scenario = _build_scenario(args)
        params = scenario.to_params()
    return params, scenario


def build_run_config(args):
    params, scenario = _model(args)
    initial, amp = _parse_initial(args.initial, params)
    return RunConfig(params=params, initial=initial, coherent_amplitude=amp,
                     samples=args.samples, out_dir=Path(args.out), scenario=scenario)


# -- run helpers -------------------------------------------------------------


def _pipeline_moments(config):
    sol = pipeline.solve(config.params, n_samples=config.samples)
    return sol, sol.moments(config.initial)


def _oracle_run(config, args):
    params = config.params
    ops = oracle_mod.build_operators(args.oracle_n, params.m.value(0.0),
                                     params.omega.value(0.0), params.hbar)
    if config.coherent_amplitude is None:
        raise ConfigError("the oracle can only prepare ground or coherent initial "
                          "states; explicit moments have no unique state vector")
    psi0 = oracle_mod.coherent_state(ops, config.coherent_amplitude)
    grid = np.linspace(0.0, params.horizon, config.samples)
    return oracle_mod.propagate_state(psi0, params, grid, ops, dt=args.oracle_dt)


def _oracle_summary(run):
    return (f"max top-decile population {run.max_top_population:.3e}, "
            f"max norm drift {run.max_norm_drift:.3e}, {run.matvecs} matvecs "
            f"in {run.steps} steps")


def _oracle_rows(run):
    mt = run.moments
    nan = np.full_like(run.times, np.nan)
    return np.column_stack([
        run.times, mt.mean_x, mt.mean_p, np.sqrt(mt.var_x), np.sqrt(mt.var_p),
        mt.cov_xp, mt.var_x * mt.var_p,
        nan, nan, nan, nan, nan, nan, nan, nan, nan,
        run.norms, run.top_populations])


# -- comparison --------------------------------------------------------------


def compare_series(times, ref, other, threshold):
    """Pointwise comparison of two moment trajectories on ``times`` with a
    floor tied to the quantum scales.

    Each series s gets denom_t = |ref_t| + 0.01*max(amplitude_s, floor_s)
    where floor_s is built from the reference standard deviations, so
    identically-zero series (means of an undriven symmetric state) do not
    divide noise by noise.
    """
    sx = math.sqrt(max(float(np.max(ref.var_x)), 0.0))
    sp = math.sqrt(max(float(np.max(ref.var_p)), 0.0))
    floors = {"mean_x": sx, "mean_p": sp, "var_x": sx * sx, "var_p": sp * sp,
              "cov_xp": sx * sp}
    series = []
    for name in COMPARE_SERIES:
        a, b = np.asarray(getattr(ref, name)), np.asarray(getattr(other, name))
        amp = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        scale = max(amp, floors[name])
        denom = np.abs(a) + 0.01 * scale if scale > 0.0 else np.ones_like(a)
        rel = np.abs(a - b) / denom
        i = int(np.argmax(rel))
        series.append({"name": name, "max_abs_err": float(np.abs(a - b).max()),
                       "max_rel_err": float(rel[i]), "t_at_max": float(times[i]),
                       "passed": bool(rel[i] <= threshold)})
    return series


# -- subcommands -------------------------------------------------------------


def cmd_validate(args):
    params, _ = _model(args)
    report = validate(params)
    if report.ok:
        print(f"ok: all validity constraints hold on a {report.grid_points}-point grid")
        return EXIT_OK
    for constraint, t, value in report.failures:
        print(f"violated: {constraint} at t={t:.6g} (value {value:.6e})")
    return EXIT_VALIDITY


def cmd_static_diag(args):
    if args.config is None:
        raise ConfigError("static-diag requires --config with static parameters")
    try:
        obj = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    params = staticdiag.StaticParams.from_dict(obj)
    branch = staticdiag.diag_branch_theta_p_zero if args.branch == "theta-p-zero" \
        else staticdiag.diag_branch_theta_x_zero
    print(branch(params).to_json())
    return EXIT_OK


def cmd_evolve(args):
    _check_samples(args)
    if args.density < 0:
        raise ConfigError(f"--density must not be negative, got {args.density}")
    config = build_run_config(args)
    sol, mt = _pipeline_moments(config)
    c = sol.coeffs
    rows = np.column_stack([
        sol.grid, mt.mean_x, mt.mean_p, np.sqrt(mt.var_x), np.sqrt(mt.var_p),
        mt.cov_xp, mt.var_x * mt.var_p, c.A, c.B, c.D, c.E,
        sol.ermakov.rho, sol.ermakov.Phi, c.beta_x_t, c.beta_p_t, sol.global_phase()])
    out = config.out_dir / "moments.csv"
    write_csv(out, MOMENT_COLUMNS, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.density > 0:
        sx_max = math.sqrt(float(np.max(mt.var_x)))
        lo = float(np.min(mt.mean_x)) - 5.0 * sx_max
        hi = float(np.max(mt.mean_x)) + 5.0 * sx_max
        xs = np.linspace(lo, hi, args.density)
        block = pipeline.gaussian_density(mt, xs)
        dens_out = config.out_dir / "density.csv"
        # write_csv has made the directory
        _write_density_csv(dens_out, sol.grid, xs, block)
        print(f"wrote {dens_out} ({block.size} rows)")
    return EXIT_OK


def cmd_oracle(args):
    _check_samples(args)
    config = build_run_config(args)
    run = _oracle_run(config, args)
    out = config.out_dir / "oracle.csv"
    write_csv(out, MOMENT_COLUMNS + ("norm", "top_population"), _oracle_rows(run))
    print(f"wrote {out} ({len(run.times)} rows); {_oracle_summary(run)}")
    if not run.reliable:
        print("warning: truncation alarm, run is unreliable; increase --oracle-n")
        return EXIT_UNRELIABLE
    return EXIT_OK


def cmd_compare(args):
    _check_samples(args)
    if not args.threshold >= 0.0:
        raise ConfigError(f"--threshold must be a non-negative number, got {args.threshold}")
    config = build_run_config(args)
    if args.rwa:
        if not isinstance(config.scenario, DrivenSpec):
            raise ConfigError("--rwa comparison needs --scenario driven")
        if config.coherent_amplitude is None:
            raise ConfigError("--rwa comparison needs a ground or coherent start")
        times = np.linspace(0.0, config.params.horizon, config.samples)
        ref = driven_moments_exact(config.scenario, config.initial, times)
        other = driven_moments_rwa(config.scenario, config.coherent_amplitude, times)
        reliable = True
        label = "rwa"
    else:
        sol, mt = _pipeline_moments(config)
        run = _oracle_run(config, args)
        times = sol.grid
        ref, other = mt, run.moments
        reliable = run.reliable
        label = "oracle"
        print(f"oracle: {_oracle_summary(run)}")
    series = compare_series(times, ref, other, args.threshold)
    report = {"threshold": args.threshold, "reliable": reliable,
              "passed": all(s["passed"] for s in series), "series": series}
    columns = ["t"]
    data = [times]
    for name in COMPARE_SERIES:
        columns += [f"{name}_ref", f"{name}_{label}"]
        data += [getattr(ref, name), getattr(other, name)]
    out = config.out_dir / "compare.csv"
    write_csv(out, columns, np.column_stack(data))
    # write_csv has made the directory
    (config.out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for s in series:
        print(f"{s['name']}: max_abs={s['max_abs_err']:.3e} max_rel={s['max_rel_err']:.3e} "
              f"at t={s['t_at_max']:.6g} {'PASS' if s['passed'] else 'FAIL'}")
    overall = "PASS" if report["passed"] else "FAIL"
    if not reliable:
        overall += " (UNRELIABLE: truncation alarm)"
    print(f"overall: {overall} (threshold {args.threshold:g})")
    print(f"wrote {out}")
    if not reliable:
        return EXIT_UNRELIABLE
    return EXIT_OK if report["passed"] else EXIT_COMPARISON


def _sweep_point(args, name, value):
    sub = argparse.Namespace(**vars(args))
    setattr(sub, name.replace("-", "_"), value)
    try:
        config = build_run_config(sub)
        _, mt = _pipeline_moments(config)
        unc = mt.var_x * mt.var_p
        return (value, "ok", float(np.abs(mt.mean_x).max()),
                float(np.abs(mt.mean_p).max()), float(unc.min()), float(unc.max()))
    except (ConfigError, DomainError, ValidityError, SingularityError,
            IntegrationError) as exc:
        status = f"error: {type(exc).__name__}"
        if getattr(exc, "constraint", None):
            status += f": {exc.constraint}"
        if getattr(exc, "t", None) is not None:
            status += f" at t={exc.t:.6g}"
        return (value, status.replace(",", ";"), math.nan, math.nan,
                math.nan, math.nan)


def cmd_sweep(args):
    if args.sweep is None:
        raise ConfigError("sweep requires --sweep param:lo:hi:count")
    if args.scenario is None:
        raise ConfigError("sweep works on scenario presets; pass --scenario")
    parts = args.sweep.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep must look like param:lo:hi:count")
    name, lo, hi, count = parts[0], parts[1], parts[2], parts[3]
    # only the knobs the preset reads; any other would give a flat sweep
    allowed = {"driven": {"omega-d", "strength"}, "ck": {"gamma"}}[args.scenario] \
        | {"horizon", "m", "omega"}
    if name not in allowed:
        raise ConfigError(f"sweep parameter of the {args.scenario} scenario must be "
                          f"one of {sorted(allowed)}")
    try:
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError("sweep bounds must be numbers and count an integer") from None
    for label, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ConfigError(f"sweep bound {label} must be finite, got {bound}")
    if count < 1:
        raise ConfigError("sweep count must be at least 1")
    _check_samples(args)
    results = [_sweep_point(args, name, float(v)) for v in np.linspace(lo, hi, count)]
    path = Path(args.out) / "sweep.csv"
    write_csv(path, (name, "status", "max_abs_mean_x", "max_abs_mean_p",
                     "min_uncertainty", "max_uncertainty"), results)
    n_ok = sum(1 for r in results if r[1] == "ok")
    print(f"wrote {path} ({n_ok}/{count} points ok)")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def build_parser():
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--config", default=None, help="model parameters JSON")
    model.add_argument("--scenario", default=None, choices=("driven", "ck"))
    model.add_argument("--m", type=float, default=1.0)
    model.add_argument("--omega", type=float, default=1.0)
    model.add_argument("--omega-d", type=float, default=None,
                       help="drive frequency (driven preset; default resonant)")
    model.add_argument("--strength", type=float, default=0.1,
                       help="drive strength (driven preset)")
    model.add_argument("--gamma", type=float, default=None,
                       help="mass-scaling rate (ck preset; default -omega/4)")
    model.add_argument("--hbar", type=float, default=1.0)
    model.add_argument("--horizon", type=float, default=None)
    run = argparse.ArgumentParser(add_help=False, parents=[model])
    run.add_argument("--samples", type=int, default=pipeline.PIPELINE_SAMPLES)
    run.add_argument("--initial", default="ground",
                     help="ground | coherent:<amp> | moments:x,p,vx,vp,cv")
    run.add_argument("--out", default=".")
    fock = argparse.ArgumentParser(add_help=False)
    fock.add_argument("--oracle-n", type=int, default=oracle_mod.DEFAULT_N)
    fock.add_argument("--oracle-dt", type=float, default=None,
                      help="the oracle's midpoint step (absolute time units)")

    parser = argparse.ArgumentParser(
        prog="tdqho",
        description="Quadratic time-dependent oscillator: analytic moment "
                    "propagation with a Fock-basis cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[model]).set_defaults(fn=cmd_validate)
    p = sub.add_parser("static-diag")
    p.set_defaults(fn=cmd_static_diag)
    p.add_argument("--config", default=None, help="static parameters JSON")
    p.add_argument("--branch", default="theta-p-zero",
                   choices=("theta-p-zero", "theta-x-zero"))
    p = sub.add_parser("evolve", parents=[run])
    p.set_defaults(fn=cmd_evolve)
    p.add_argument("--density", type=int, default=0,
                   help="also write density.csv with this many x points")
    sub.add_parser("oracle", parents=[run, fock]).set_defaults(fn=cmd_oracle)
    p = sub.add_parser("compare", parents=[run, fock])
    p.set_defaults(fn=cmd_compare)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--rwa", action="store_true",
                   help="exact vs rotating-wave instead of oracle")
    p = sub.add_parser("sweep", parents=[run])
    p.set_defaults(fn=cmd_sweep)
    p.add_argument("--sweep", default=None, help="param:lo:hi:count")
    return parser


@functools.cache
def _parser():
    """build_parser() once per process: it takes about 2 ms, and parse_args
    leaves the parser as it found it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValidityError, SingularityError, IntegrationError) as exc:
        t = getattr(exc, "t", None)
        # name the failure time unless the message already does
        where = "" if t is None or f"t={t:.6g}" in str(exc) else f" at t={t:.6g}"
        print(f"validity error: {exc}{where}", file=sys.stderr)
        return EXIT_VALIDITY


if __name__ == "__main__":
    sys.exit(main())
