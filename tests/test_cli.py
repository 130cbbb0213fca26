import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdqho
from tdqho import cli
from tdqho.cli import build_parser, build_run_config, main, write_csv
from tdqho.errors import ValidityError
from tdqho.pipeline import gaussian_density

from test_pipeline import _m5_stub

PI = math.pi


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, np.atleast_2d(data)


def test_evolve_writes_expected_columns(tmp_path):
    rc = main(["evolve", "--scenario", "driven", "--omega-d", "0.5",
               "--samples", "50", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "moments.csv")
    assert header[:7] == ["t", "mean_x", "mean_p", "sigma_x", "sigma_p",
                          "cov_xp", "uncertainty_product"]
    assert "global_phase" in header
    assert data.shape[0] == 50
    # sanity: t = 0 row is the displaced-origin ground state
    assert data[0, 0] == 0.0
    assert data[0, 6] == pytest.approx(0.25, rel=1e-14)


def test_evolve_reruns_are_byte_identical(tmp_path):
    args = ["evolve", "--scenario", "driven", "--samples", "64"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


@pytest.mark.parametrize("initial", ["ground", "coherent:0.3-0.2j"])
def test_compare_reruns_are_byte_identical(tmp_path, initial):
    args = ["compare", "--scenario", "driven", "--horizon", "4", "--samples", "64",
            "--initial", initial]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("compare.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_evolve_from_config_file(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "m": 1.0,
        "omega": {"kind": "cosine", "amplitude": 0.0,
                  "angular_frequency": 1.0},
        "horizon": 1.0}))
    # zero-amplitude cosine frequency is invalid (omega must stay positive)
    assert main(["validate", "--config", str(cfg)]) == 3
    cfg.write_text(json.dumps({"m": 1.0, "omega": 1.0, "horizon": 2.0}))
    assert main(["evolve", "--config", str(cfg), "--samples", "20",
                 "--out", str(tmp_path)]) == 0
    # an order-3 (default-order) table: the one path that builds the cubic spline
    knots = list(range(11))
    cfg.write_text(json.dumps({
        "m": 1.0,
        "omega": {"kind": "tabulated", "grid": knots,
                  "values": [1.0 + 0.05 * math.cos(0.7 * k) for k in knots]},
        "horizon": 10.0}))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["evolve", "--config", str(cfg), "--samples", "20",
                     "--out", str(out)]) == 0
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


# Run in a fresh interpreter: the test process has scipy and numpy.ma loaded
# already.
_SCIPY_PROBE = """
import json, math, sys, tempfile
from pathlib import Path
from tdqho.cli import main
ma = ["numpy.ma" in sys.modules]
rc = [main(["validate", "--scenario", "driven"])]
with tempfile.TemporaryDirectory() as out:
    rc.append(main(["evolve", "--scenario", "driven", "--samples", "300",
                    "--density", "5", "--out", out]))
    ma.append("numpy.ma" in sys.modules)
    # an order-3 (default-order) table: the cubic spline is the package's own
    cfg = Path(out) / "model.json"
    knots = list(range(11))
    cfg.write_text(json.dumps({
        "m": 1.0, "horizon": 10.0,
        "omega": {"kind": "tabulated", "grid": knots,
                  "values": [1.0 + 0.05 * math.cos(0.7 * k) for k in knots]}}))
    rc.append(main(["evolve", "--config", str(cfg), "--samples", "50", "--out", out]))
scipy = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
print(json.dumps({"rc": rc, "ma": ma, "scipy": scipy}))
"""


_IMPORT_PROBE = """
import json, sys, tempfile
import tdqho.cli
from tdqho import csvtext
loaded = lambda: sorted(m for m in ("fractions", "decimal") if m in sys.modules)
probe = {"import": [loaded(), csvtext._tables.cache_info().currsize]}
with tempfile.TemporaryDirectory() as out:
    rc = tdqho.cli.main(["evolve", "--scenario", "driven", "--samples", "20", "--out", out])
probe["evolve"] = [rc, loaded(), csvtext._tables.cache_info().currsize]
print(json.dumps(probe))
"""


def test_cli_import_builds_no_csv_tables_and_loads_no_fractions():
    # the ensemble benchmark times this import and never writes a CSV
    env = dict(os.environ, PYTHONPATH=str(Path(tdqho.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["import"] == [[], 0]
    # the first CSV builds the tables, still without fractions or decimal
    assert probe["evolve"] == [0, [], 1]


def test_package_exports_every_public_name_it_imports():
    missing = [name for name in tdqho.__all__ if not hasattr(tdqho, name)]
    assert missing == []
    tree = ast.parse(Path(tdqho.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(tdqho.__all__)


def test_closed_form_runs_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(tdqho.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["rc"] == [0, 0, 0]
    # neither the import nor an evolve run (global phase included) loads numpy.ma
    assert probe["ma"] == [False, False]
    # no run loads scipy, an order-3 table's included
    assert probe["scipy"] == []


def test_density_output(tmp_path):
    rc = main(["evolve", "--scenario", "ck", "--samples", "8", "--density",
               "11", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "density.csv")
    assert header == ["t", "x", "value"]
    assert data.shape == (88, 3)
    assert np.all(data[:, 2] >= 0.0)


def test_density_grid_wider_than_a_float_exits_3(tmp_path, capsys):
    # mean_x swings through +-1e308, so hi - lo overflows: np.linspace would
    # fill the x column with nan and inf; the run stops before any CSV
    argv = ["evolve", "--scenario", "driven", "--initial", "moments:1e308,0,1,1,0"]
    assert main(argv + ["--density", "5", "--out", str(tmp_path / "d")]) == 3
    lo, hi = re.search(r"density grid from (\S+) to (\S+) is wider than the largest float",
                       capsys.readouterr().err).groups()
    assert float(hi) == 1e308 and math.isinf(float(hi) - float(lo))
    assert not (tmp_path / "d").exists()
    # without --density the moments are still written
    assert main(argv + ["--out", str(tmp_path / "m")]) == 0
    header, data = read_csv(tmp_path / "m" / "moments.csv")
    assert data.shape == (2000, len(header)) and np.isfinite(data).all()


@pytest.mark.parametrize("argv", [
    ["--scenario", "ck", "--samples", "8", "--density", "11"],
    ["--scenario", "driven", "--samples", "40", "--density", "9",
     "--initial", "coherent:0.3-0.2j"],
    # far tails: cells below 1e-4 (scientific notation) and exact zeros
    ["--scenario", "driven", "--samples", "12", "--density", "15",
     "--initial", "coherent:30"]], ids=" ".join)
def test_density_csv_matches_per_cell_reference(tmp_path, argv):
    assert main(["evolve", *argv, "--out", str(tmp_path)]) == 0
    args = build_parser().parse_args(["evolve", *argv])
    sol, mt = cli._pipeline_moments(build_run_config(args))
    sx_max = math.sqrt(float(np.max(mt.var_x)))
    xs = np.linspace(float(np.min(mt.mean_x)) - 5.0 * sx_max,
                     float(np.max(mt.mean_x)) + 5.0 * sx_max, args.density)
    expected = "t,x,value\n" + "".join(
        "%.17g,%.17g,%.17g\n" % (t, x, v)
        for i, t in enumerate(sol.grid)
        for x, v in zip(xs, gaussian_density(mt.state(i), xs)))
    assert (tmp_path / "density.csv").read_text() == expected
    if "coherent:30" in argv:
        assert ",0\n" in expected and "e-" in expected


def test_config_and_scenario_mutually_exclusive(tmp_path):
    assert main(["evolve", "--config", "x.json", "--scenario", "driven",
                 "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--out", str(tmp_path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_bad_initial_state(tmp_path):
    assert main(["evolve", "--scenario", "driven", "--initial", "squeezed",
                 "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--scenario", "driven",
                 "--initial", "moments:0,0,0.1,0.1,0",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["evolve", "--initial", "coherent:nan"],
    ["compare", "--rwa", "--initial", "coherent:nanj"],
    ["oracle", "--initial", "coherent:inf+0j"],
], ids=["evolve", "compare-rwa", "oracle"])
def test_non_finite_coherent_amplitude_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--scenario", "driven", "--samples", "20", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--initial" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "compare"])
@pytest.mark.parametrize("amplitude", ["40", "1e200"])
def test_coherent_amplitude_the_basis_cannot_hold_is_config_error(tmp_path, capsys,
                                                                   command, amplitude):
    # every weight of the truncated state underflows: named before any division
    rc = main([command, "--scenario", "driven", "--initial", f"coherent:{amplitude}",
               "--horizon", "1", "--samples", "3", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coherent amplitude") and "n=64" in err


def test_validate_reports_a_failure_at_zero_like_any_other(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"m": {"kind": "polynomial", "coefficients": [-1, 1]},
                               "omega": 1, "horizon": 2}))
    assert main(["validate", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("violated: m > 0 at t=0 ")
    assert captured.err == ""


MODEL_FLAGS = {"--config", "--scenario", "--m", "--omega", "--omega-d", "--strength",
               "--gamma", "--hbar", "--horizon"}
RUN_FLAGS = MODEL_FLAGS | {"--samples", "--initial", "--out"}
FOCK_FLAGS = {"--oracle-n", "--oracle-dt"}
SUBCOMMAND_FLAGS = {
    "validate": MODEL_FLAGS,
    "static-diag": {"--config", "--branch"},
    "evolve": RUN_FLAGS | {"--density"},
    "oracle": RUN_FLAGS | FOCK_FLAGS,
    "compare": RUN_FLAGS | FOCK_FLAGS | {"--threshold", "--rwa"},
    "sweep": RUN_FLAGS | {"--sweep"},
}


def _subparsers():
    action, = (a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_subcommand_takes_only_the_flags_it_reads(command, capsys):
    sub = _subparsers()[command]
    flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
    assert flags == SUBCOMMAND_FLAGS[command]
    # any other flag is an argparse error, the configuration-error code
    for flag in set().union(*SUBCOMMAND_FLAGS.values()) - flags:
        with pytest.raises(SystemExit) as info:
            main([command, flag, "1"])
        assert info.value.code == 2, flag
    capsys.readouterr()


def test_overdamped_scaling_is_validity_error(tmp_path):
    assert main(["validate", "--scenario", "ck", "--gamma", "2.5"]) == 3


def test_evolve_validity_error_names_the_time(tmp_path, capsys):
    # omega + kappa turns negative at t = 1.05641, inside the horizon
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "m": 1, "omega": 1,
        "alpha_xp": {"kind": "cosine", "amplitude": 0.6,
                     "angular_frequency": 1.0, "phase": 1.5},
        "horizon": 3}))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "at t=1.05641" in capsys.readouterr().err


def _parabolic_mass_config(tmp_path):
    # m = 1 - 2 t^2 turns negative at t = 0.707, omega + kappa already at 0.366
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "m": {"kind": "polynomial", "coefficients": [1, 0, -2]}, "omega": 1, "horizon": 1}))
    return str(cfg)


def test_validate_prints_kappa_failures_where_m_and_omega_hold(tmp_path, capsys):
    assert main(["validate", "--config", _parabolic_mass_config(tmp_path)]) == 3
    assert [ln.split(" (value")[0] for ln in capsys.readouterr().out.splitlines()] == [
        "violated: m > 0 at t=0.707204", "violated: omega + kappa > 0 at t=0.366056",
        "violated: omega^2 - kappa^2 > 0 at t=0.366056"]


def test_evolve_names_the_earliest_failure_of_the_four_rules(tmp_path, capsys):
    assert main(["evolve", "--config", _parabolic_mass_config(tmp_path), "--samples", "5",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "omega + kappa > 0" in err and err.endswith(" at t=0.366056\n")


def _exponential_mass_config(tmp_path):
    # kappa = 50 breaks omega^2 - kappa^2 > 0 from t = 0; m = e^(100 t)
    # overflows near t = 7.1, where omega + kappa turns NaN
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "m": {"kind": "exponential", "prefactor": 1, "rate": 100},
        "omega": 1, "horizon": 10}))
    return str(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evolve_names_the_earliest_validity_failure(tmp_path, capsys):
    cfg = _exponential_mass_config(tmp_path)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "omega^2 - kappa^2 > 0" in err and "at t=0" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_prints_every_failure(tmp_path, capsys):
    cfg = _exponential_mass_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(" at ")[0] for ln in lines] == [
        "violated: omega + kappa > 0", "violated: omega^2 - kappa^2 > 0"]


@pytest.mark.parametrize("argv, key", [
    (["evolve", "--scenario", "driven", "--strength", "nan"], "drive_strength"),
    (["evolve", "--scenario", "driven", "--omega-d", "inf"], "drive_frequency"),
    (["evolve", "--scenario", "driven", "--m", "inf"], "m must be finite"),
    (["evolve", "--scenario", "ck", "--gamma", "nan"], "gamma"),
    (["evolve", "--scenario", "driven", "--horizon", "inf"], "horizon"),
    (["compare", "--scenario", "driven", "--rwa", "--strength", "nan"],
     "drive_strength"),
    (["evolve", "--config", "{cfg}"], "m: expected a finite number"),
    (["evolve", "--config", "{cfg}", "--horizon", "inf"], "horizon"),
    (["oracle", "--scenario", "driven", "--oracle-dt", "inf"], "dt must be"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:nan:1.4:2"], "lo must be finite"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:inf:1.4:2"], "lo must be finite"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:1.2:nan:2"], "hi must be finite"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:1.2:inf:2"], "hi must be finite"),
], ids=["strength-nan", "omega-d-inf", "m-inf", "ck-gamma-nan", "horizon-inf",
        "compare-rwa-strength-nan", "config-nan", "config-horizon-inf", "oracle-dt-inf",
        "sweep-lo-nan", "sweep-lo-inf", "sweep-hi-nan", "sweep-hi-inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, argv, key):
    cfg = tmp_path / "model.json"
    # Python's json reads NaN and Infinity; m is parsed before horizon
    cfg.write_text('{"m": NaN, "omega": 1, "horizon": Infinity}'
                   if "--horizon" not in argv else '{"m": 1, "omega": 1, "horizon": 1}')
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    assert main(argv + ["--samples", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_non_finite_kernel_exits_with_validity_error(tmp_path, capsys, monkeypatch):
    _m5_stub(monkeypatch, math.inf, after=1.0)
    assert main(["evolve", "--scenario", "driven", "--samples", "20",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validity error: non-finite") and "at t=1." in err


def test_oracle_on_runaway_hamiltonian_exits_with_validity_error(tmp_path, capsys):
    cfg = tmp_path / "runaway.json"
    cfg.write_text(json.dumps({"m": {"kind": "exponential", "prefactor": 1.0, "rate": 30.0},
                               "omega": 1.0, "horizon": 2.0}))
    assert main(["oracle", "--config", str(cfg), "--oracle-n", "16", "--samples", "50",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validity error: Hamiltonian norm bound") and "at t=0.3" in err


def test_oracle_norm_drift_exits_with_validity_error(tmp_path, capsys, monkeypatch):
    # a drift beyond NORM_DRIFT_ABORT aborts the run (exit 3), unlike the
    # truncation alarm, which finishes it and flags it unreliable (exit 5)
    monkeypatch.setattr(tdqho.oracle, "NORM_DRIFT_ABORT", 1e-17)
    assert main(["oracle", "--scenario", "driven", "--horizon", "2", "--samples", "50",
                 "--oracle-n", "16", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"validity error: norm drift \S+ exceeds 1e-17 at t=0\.0408163\n", err)


def test_readme_compare_example_passes(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # every documented command line parses, so a renamed flag fails here
    commands = [ln.split()[1:] for ln in text.splitlines() if ln.startswith("tdqho ")]
    assert len(commands) >= 7
    for argv in commands:
        build_parser().parse_args(argv)
    line = next(ln for ln in text.splitlines() if ln.startswith("tdqho compare --scenario ck"))
    argv = line.split()[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "run")
    assert main(argv) == 0
    assert "overall: PASS" in capsys.readouterr().out


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [ln.split()[1:] for ln in text.splitlines() if ln.startswith("tdqho ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses_and_gives_only_knobs_its_model_reads(argv):
    args = build_parser().parse_args(argv)
    if hasattr(args, "scenario"):  # every subcommand with model flags
        cli._model_knobs(args)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", "--scenario", "driven"]) == 0
    assert "ok" in capsys.readouterr().out


def test_static_diag_output(tmp_path, capsys):
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps({"m": 1.0, "omega": 1.0, "alpha_x": 0.3,
                               "alpha_xp": 0.2}))
    assert main(["static-diag", "--config", str(cfg)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["M"] == 1.0
    assert obj["Omega_sq"] == pytest.approx(1.0 - 0.16, rel=1e-14)
    capsys.readouterr()
    assert main(["static-diag", "--config", str(cfg),
                 "--branch", "theta-x-zero"]) == 0
    obj2 = json.loads(capsys.readouterr().out)
    assert obj2["Omega_sq"] == pytest.approx(obj["Omega_sq"], rel=1e-14)
    assert obj2["M"] == pytest.approx(1.0 / 0.84, rel=1e-13)


def test_static_diag_singular_ridge(tmp_path):
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps({"m": 1.0, "omega": 1.0, "alpha_xp": 0.5,
                               "alpha_x": 0.1}))
    assert main(["static-diag", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("config", [
    {"m": 1.0, "omega": 1.0, "horizon": "ten"},
    {"m": 1.0, "omega": 1.0, "horizon": None},
    {"m": 1.0, "omega": 1.0, "horizon": 1.0, "hbar": "x"},
    {"m": 1.0, "omega": "x"},
    {"m": None, "omega": 1.0},
], ids=["horizon-string", "horizon-null", "hbar-string", "static-omega-string",
        "static-m-null"])
def test_non_numeric_config_scalar_is_config_error(tmp_path, capsys, config):
    # QuadraticParams.from_dict behind validate, StaticParams.from_dict
    # behind static-diag
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    command = "validate" if "horizon" in config else "static-diag"
    assert main([command, "--config", str(cfg)]) == 2
    bad = next(k for k, v in config.items() if not isinstance(v, (int, float)))
    err = capsys.readouterr().err
    assert err.startswith("config error:") and bad in err


@pytest.mark.parametrize("command,config,key", [
    ("validate", {"m": 1.0, "omega": 1.0, "horizon": True}, "horizon"),
    ("validate", {"m": 1.0, "omega": 1.0, "horizon": "10"}, "horizon"),
    ("validate", {"m": 1.0, "omega": 1.0, "horizon": 1.0, "hbar": False}, "hbar"),
    ("validate", {"m": {"kind": "constant", "value": True}, "omega": 1.0,
                  "horizon": 1.0}, "value"),
    ("validate", {"m": 1.0, "omega": 1.0, "horizon": 1.0, "alpha_x": {
        "kind": "cosine", "amplitude": "0.1", "angular_frequency": 1.0}}, "amplitude"),
    ("validate", {"m": {"kind": "exponential", "prefactor": 1.0, "rate": True},
                  "omega": 1.0, "horizon": 1.0}, "rate"),
    ("static-diag", {"m": True, "omega": 2.0}, "m"),
    ("static-diag", {"m": 1.0, "omega": "2"}, "omega"),
], ids=["horizon-true", "horizon-numeric-string", "hbar-false", "constant-true",
        "amplitude-numeric-string", "rate-true", "static-m-true",
        "static-omega-numeric-string"])
def test_boolean_or_string_is_not_a_number(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key}: expected a number" in err


def test_output_directory_is_made_only_for_written_files(tmp_path):
    fresh = tmp_path / "validate"
    with pytest.raises(SystemExit) as info:
        main(["validate", "--scenario", "driven", "--out", str(fresh)])
    assert info.value.code == 2
    assert not fresh.exists()
    nested = tmp_path / "a" / "b"
    assert main(["evolve", "--scenario", "driven", "--samples", "20",
                 "--out", str(nested)]) == 0
    assert (nested / "moments.csv").exists()


def test_write_csv_matches_per_cell_format(tmp_path):
    # the row format built once per file against the per-cell reference
    floats = np.array([[0.1, -0.0, 1e-300, math.nan],
                       [2.0 / 3.0, -1e20, math.inf, 123456789.123456789]])
    sweep = [(0.6, "ok", 0.25, -0.0), (1.4, "error: ValidityError", math.nan, math.nan)]
    for rows in (floats, list(floats), sweep):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b", "c", "d"), rows)
        expected = "a,b,c,d\n" + "".join(
            ",".join(x if isinstance(x, str) else "%.17g" % x for x in row) + "\n"
            for row in rows)
        assert path.read_text() == expected


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
@pytest.mark.parametrize("command", [
    ["evolve"], ["oracle"], ["compare"], ["compare", "--rwa"],
    ["sweep", "--sweep", "omega-d:0.6:1.4:2"]], ids=" ".join)
def test_samples_below_two_is_config_error(tmp_path, capsys, command, samples):
    out = tmp_path / "out"
    rc = main(command + ["--scenario", "driven", "--samples", samples,
                         "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--samples" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--density", "-5"], "--density"),
    (["compare", "--threshold", "-1"], "--threshold"),
    (["compare", "--threshold", "nan"], "--threshold"),
    (["compare", "--rwa", "--threshold", "-1"], "--threshold"),
], ids=["evolve-density--5", "compare-threshold--1", "compare-threshold-nan",
        "compare-rwa-threshold--1"])
def test_negative_density_or_threshold_is_config_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    rc = main(argv + ["--scenario", "driven", "--samples", "20", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


def _compare_report(out_dir, stdout, overall):
    """report.json with its keys in order, after checking that stdout prints
    one line per series from the report's own numbers, then ``overall``."""
    report = json.loads((out_dir / "report.json").read_text())
    assert list(report) == ["threshold", "reliable", "passed", "series"]
    assert [s["name"] for s in report["series"]] == list(cli.COMPARE_SERIES)
    expected = []
    for s in report["series"]:
        assert list(s) == ["name", "max_abs_err", "max_rel_err", "t_at_max", "passed"]
        expected.append("%s: max_abs=%.3e max_rel=%.3e at t=%.6g %s" % (
            s["name"], s["max_abs_err"], s["max_rel_err"], s["t_at_max"],
            "PASS" if s["passed"] else "FAIL"))
    lines = stdout.splitlines()
    start = lines.index(expected[0])
    assert lines[start:start + 6] == expected + [overall]
    return report


def test_compare_pipeline_against_fock_basis(tmp_path, capsys):
    rc = main(["compare", "--scenario", "driven",
               "--horizon", str(2.0 * PI), "--samples", "80",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^oracle: max top-decile population \S+, max norm drift \S+, "
                     r"\d+ matvecs in \d+ steps$", out, re.M)
    report = _compare_report(tmp_path, out, "overall: PASS (threshold 0.0001)")
    assert report["passed"] and report["reliable"]
    header, data = read_csv(tmp_path / "compare.csv")
    assert header[0] == "t" and "mean_x_ref" in header
    assert data.shape[0] == 80


def test_compare_rwa_flags_counter_rotating_error(tmp_path, capsys):
    # the averaged momentum misses a strength/2 oscillation, so a strict
    # threshold fails while the position series passes
    rc = main(["compare", "--scenario", "driven", "--strength", "0.01",
               "--rwa", "--samples", "120", "--threshold", "1e-4",
               "--out", str(tmp_path)])
    assert rc == 4
    report = _compare_report(tmp_path, capsys.readouterr().out,
                             "overall: FAIL (threshold 0.0001)")
    assert not report["passed"] and report["reliable"]
    by_name = {s["name"]: s for s in report["series"]}
    assert by_name["mean_x"]["passed"]
    assert not by_name["mean_p"]["passed"]
    # sampled maximum of the strength/2 oscillation, up to grid resolution
    assert by_name["mean_p"]["max_abs_err"] == pytest.approx(0.005, rel=2e-2)


def test_compare_unreliable_oracle(tmp_path, capsys):
    with pytest.warns(UserWarning, match="tail mass"):
        rc = main(["compare", "--scenario", "driven", "--oracle-n", "8",
                   "--initial", "coherent:2.0", "--horizon", "3.0",
                   "--samples", "20", "--out", str(tmp_path)])
    assert rc == 5
    report = _compare_report(tmp_path, capsys.readouterr().out,
                             "overall: FAIL (UNRELIABLE: truncation alarm) (threshold 0.0001)")
    assert not report["passed"] and not report["reliable"]


def test_oracle_subcommand(tmp_path, capsys):
    rc = main(["oracle", "--scenario", "driven", "--horizon", str(PI),
               "--samples", "25", "--out", str(tmp_path)])
    assert rc == 0
    drift = re.search(r"max norm drift (\S+), (\d+) matvecs in (\d+) steps$",
                      capsys.readouterr().out, re.M)
    assert drift and float(drift[1]) < 1e-10 and int(drift[2]) >= 4 * int(drift[3]) > 0
    header, data = read_csv(tmp_path / "oracle.csv")
    assert header[-2:] == ["norm", "top_population"]
    assert np.max(np.abs(data[:, header.index("norm")] - 1.0)) < 1e-10
    # pipeline-only columns are nan-filled
    assert np.all(np.isnan(data[:, header.index("A")]))


def test_oracle_rejects_moment_initial(tmp_path):
    rc = main(["oracle", "--scenario", "driven",
               "--initial", "moments:0,0,0.5,0.5,0", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep(tmp_path, capsys):
    rc = main(["sweep", "--scenario", "driven", "--sweep",
               "omega-d:0.5:1.5:5", "--samples", "80", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("omega-d,status,")
    assert len(lines) == 6
    assert all(",ok," in ln for ln in lines[1:])
    # resonant point has the largest excursion
    rows = [ln.split(",") for ln in lines[1:]]
    excursions = [float(r[2]) for r in rows]
    assert np.argmax(excursions) == 2


def test_sweep_argument_validation(tmp_path, capsys):
    assert main(["sweep", "--scenario", "driven",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--scenario", "driven", "--sweep", "omega-d:0:1",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--scenario", "driven", "--sweep", "phase:0:1:3",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--sweep", "omega-d:0:1:3",
                 "--out", str(tmp_path)]) == 2
    # a knob the preset ignores would write identical rows
    capsys.readouterr()
    for scenario, name in (("ck", "omega-d"), ("ck", "strength"), ("driven", "gamma")):
        assert main(["sweep", "--scenario", scenario, "--sweep", f"{name}:0.5:1.5:3",
                     "--samples", "50", "--out", str(tmp_path)]) == 2
        assert f"of the {scenario} scenario" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_records_per_point_failures(tmp_path):
    # gamma sweep crossing the overdamped boundary: bad points are recorded,
    # the sweep itself still succeeds
    rc = main(["sweep", "--scenario", "ck", "--sweep", "gamma:1.5:2.5:3",
               "--samples", "60", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    statuses = [ln.split(",")[1] for ln in lines[1:]]
    assert statuses[0] == "ok"
    assert statuses[1:] == ["error: ValidityError: |gamma| < 2 omega"] * 2


def test_sweep_failure_names_constraint_and_time(tmp_path, monkeypatch):
    def fail(config):
        raise ValidityError("collapsed", t=1.25, constraint="var_x > 0, var_p > 0")

    monkeypatch.setattr(cli, "_pipeline_moments", fail)
    assert main(["sweep", "--scenario", "driven", "--sweep", "omega-d:0.5:1.5:2",
                 "--samples", "20", "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [len(r) for r in rows] == [6, 6]
    assert {r[1] for r in rows} == {"error: ValidityError: var_x > 0; var_p > 0 at t=1.25"}



# -- documented error exits ------------------------------------------------------


def _tabulated_omega(grid, values, **kw):
    return {"m": 1, "horizon": 1,
            "omega": {"kind": "tabulated", "grid": grid, "values": values, **kw}}


@pytest.mark.parametrize("argv, config, message", [
    (["static-diag"], None, "static-diag requires --config with static parameters"),
    (["static-diag", "--config", "{missing}"], None, "cannot read config: "),
    (["static-diag", "--config", "{cfg}"], '{"m": 1', "config is not valid JSON: "),
    (["static-diag", "--config", "{cfg}"], [1], "expected an object, got list"),
    (["static-diag", "--config", "{cfg}"], {"m": 1, "omega": 1, "hbar": 0},
     "hbar must be positive, got 0.0"),
    (["evolve", "--scenario", "driven", "--initial", "coherent:abc"], None,
     "bad coherent amplitude in 'coherent:abc'"),
    (["evolve", "--scenario", "driven", "--initial", "moments:1,2"], None,
     "moments initial state needs x,p,var_x,var_p,cov_xp"),
    (["evolve", "--scenario", "driven", "--initial", "moments:1,2,a,4,5"], None,
     "bad number in 'moments:1,2,a,4,5'"),
    (["evolve", "--scenario", "driven", "--initial", "moments:0,0,nan,1,0"], None,
     "initial moments are unphysical: non-finite moment"),
    (["compare", "--rwa", "--scenario", "ck"], None,
     "--rwa comparison needs --scenario driven"),
    (["compare", "--rwa", "--scenario", "driven", "--initial", "moments:0,0,0.5,0.5,0"],
     None, "--rwa comparison needs a ground or coherent start"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:a:1:3"], None,
     "sweep bounds must be numbers and count an integer"),
    (["sweep", "--scenario", "driven", "--sweep", "omega-d:0:1:0"], None,
     "sweep count must be at least 1"),
    (["evolve", "--config", "{cfg}"], [], "expected an object, got list"),
    (["evolve", "--config", "{cfg}"], '{"m": 1', "config is not valid JSON: "),
    (["static-diag", "--config", "{cfg}"], {"m": 1}, "missing field 'omega'"),
    (["evolve", "--config", "{cfg}"],
     {"m": {"kind": "polynomial", "coefficients": []}, "omega": 1, "horizon": 1},
     "m: polynomial needs at least one coefficient"),
    (["evolve", "--config", "{cfg}"], _tabulated_omega([0, 1, 2], [1, 1]),
     "omega: tabulated needs matching 1-d grid/values with >= 2 points"),
    (["evolve", "--config", "{cfg}"], _tabulated_omega([0, 1, 2], [1, 1, 1], order=2),
     "omega: tabulated interpolation order must be 1 or 3, got 2"),
    (["evolve", "--config", "{cfg}"], _tabulated_omega([0, 1, 2], [1, 1, 1], ordr=1),
     "omega: unknown field 'ordr' for kind 'tabulated'"),
    (["evolve", "--config", "{cfg}"],
     {"m": 1, "omega": 1, "horizon": 1, "alpha_x": {
         "kind": "cosine", "amplitude": 0.1, "angular_frequency": 1, "phaze": 0.3}},
     "alpha_x: unknown field 'phaze' for kind 'cosine'"),
    (["validate", "--config", "{cfg}"], {"m": {"kind": ["cosine"]}, "omega": 1, "horizon": 1},
     "m: unknown kind ['cosine']"),
    (["validate", "--config", "{cfg}"], {"m": {"kind": {"a": 1}}, "omega": 1, "horizon": 1},
     "m: unknown kind {'a': 1}"),
    (["validate", "--config", "{cfg}"], b'\xff\xfe{"m', "config is not valid JSON: "),
    (["static-diag", "--config", "{cfg}"], b'\xff\xfe{"m', "config is not valid JSON: "),
    (["evolve", "--scenario", "driven", "--m", "-1"], None, "m, omega, hbar must be positive"),
    (["evolve", "--scenario", "ck", "--m", "0"], None, "m, omega, hbar must be positive"),
    (["validate", "--config", "{cfg}"], "[" * 100000 + "]" * 100000,
     "config is not valid JSON: "),
    (["static-diag", "--config", "{cfg}"], "[" * 100000 + "]" * 100000,
     "config is not valid JSON: "),
    (["validate", "--config", "{cfg}"],
     '{"m": ' + "[" * 100000 + "]" * 100000 + ', "omega": 1, "horizon": 1}',
     "config is not valid JSON: "),
    (["evolve", "--config", "{cfg}", "--hbar", "2", "--omega", "3"],
     {"m": 1, "omega": 1, "horizon": 1}, "--omega is not read by --config"),
    (["evolve", "--scenario", "ck", "--strength", "5", "--omega-d", "9"], None,
     "--omega-d is not read by --scenario ck"),
    (["evolve", "--scenario", "driven", "--gamma", "5"], None,
     "--gamma is not read by --scenario driven"),
    (["sweep", "--scenario", "driven", "--gamma", "5", "--sweep", "strength:0:1:2"], None,
     "--gamma is not read by --scenario driven"),
], ids=["static-diag-no-config", "static-diag-unreadable", "static-diag-bad-json",
        "static-diag-list-root", "static-diag-zero-hbar", "coherent-not-a-number",
        "moments-too-few", "moments-not-a-number", "moments-nan", "rwa-ck",
        "rwa-moments", "sweep-bound-not-a-number", "sweep-count-0", "empty-list-root",
        "evolve-bad-json", "static-diag-no-omega", "empty-polynomial",
        "tabulated-length-mismatch", "tabulated-order-2", "tabulated-misspelled-order",
        "cosine-misspelled-phase", "list-kind", "object-kind", "validate-not-utf",
        "static-diag-not-utf", "driven-negative-m", "ck-zero-m", "validate-deep-nesting",
        "static-diag-deep-nesting", "deep-nesting-in-m", "config-given-hbar-omega",
        "ck-given-strength-omega-d", "driven-given-gamma", "sweep-given-gamma"])
def test_documented_config_error_exits_2(tmp_path, capsys, argv, config, message):
    # a message that ends in ": " goes on with the path's or the parser's detail
    cfg = tmp_path / "config.json"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    elif config is not None:
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [a.format(cfg=cfg, missing=tmp_path / "missing.json") for a in argv]
    if argv[0] not in ("static-diag", "validate"):
        argv += ["--samples", "5", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert message.endswith(": ") or err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_config_in_utf_16_or_32_or_with_a_bom_validates(tmp_path, capsys, encoding):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps({"m": 1, "omega": 1, "horizon": 1}).encode(encoding))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


# a finite input whose square passes the largest float; numpy's own overflow
# warning (validate squares omega on its grid) is not what these pin
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["static-diag", "--config", "{cfg}"],
    ["evolve", "--scenario", "ck", "--omega", "1e200", "--samples", "5"],
    ["evolve", "--scenario", "driven", "--omega", "1e200", "--samples", "5"],
], ids=["static-diag", "ck", "driven"])
def test_finite_input_that_overflows_exits_3(tmp_path, capsys, argv):
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps({"m": 1, "omega": 1e200}))
    argv = [a.format(cfg=cfg) for a in argv]
    if argv[0] == "evolve":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("validity error: overflow") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sweep_records_an_overflowing_point_and_goes_on(tmp_path):
    assert main(["sweep", "--scenario", "driven", "--sweep", "omega:1:1e200:2",
                 "--samples", "5", "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["ok", "error: OverflowError"]


def test_config_with_negative_mass_at_zero_exits_3(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"m": -1, "omega": 1, "horizon": 1}))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == ("validity error: m(0) = -1 and omega(0) = 1 "
                                       "must both be positive at t=0\n")


def test_oracle_truncation_alarm_exits_5(tmp_path, capsys):
    assert main(["oracle", "--scenario", "ck", "--gamma", "-0.25", "--samples", "50",
                 "--out", str(tmp_path)]) == 5
    out = capsys.readouterr().out
    assert out.endswith("warning: truncation alarm, run is unreliable; "
                        "increase --oracle-n\n")
    assert (tmp_path / "oracle.csv").is_file()
