import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tdqho.oracle
from tdqho.errors import DomainError, IntegrationError
from tdqho.model import QuadraticParams
from tdqho.oracle import (MAX_N, TAYLOR_MAX_TERMS, TAYLOR_THETA, _taylor_step,
                          build_operators, coherent_state, ground_state,
                          hamiltonian_matrix, moments_from_state, propagate_state)
from tdqho.scenarios import DrivenSpec


@pytest.fixture(scope="module")
def ops():
    return build_operators(64, 1.0, 1.0, 1.0)


def test_minimum_dimension():
    with pytest.raises(DomainError):
        build_operators(3, 1.0, 1.0)


def test_oversized_basis_is_refused_before_any_allocation():
    with pytest.raises(DomainError, match="exceeds the supported"):
        build_operators(MAX_N + 1, 1.0, 1.0)


def test_operators_hermitian(ops):
    assert np.array_equal(ops.x, ops.x.T)
    assert np.max(np.abs(ops.p + ops.p.T)) == 0.0  # imaginary antisymmetric part
    assert np.max(np.abs(ops.p - ops.p.conj().T)) == 0.0


def test_canonical_commutator(ops):
    comm = ops.x @ ops.p - ops.p @ ops.x
    expected = 1j * np.eye(ops.n)
    # the last basis state cannot close the algebra in a truncated space
    block = slice(0, ops.n - 1)
    assert np.max(np.abs(comm[block, block] - expected[block, block])) < 1e-13


def test_anticommutator_block_is_traceless(ops):
    assert np.max(np.abs(np.diag(ops.xp_anti))) < 1e-14


def test_static_spectrum(ops):
    p = QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "horizon": 1.0})
    h = hamiltonian_matrix(p, ops, 0.0)
    assert np.iscomplexobj(h) is False
    evals = np.linalg.eigvalsh(h)[: ops.n // 2]
    expected = np.arange(ops.n // 2) + 0.5
    assert np.max(np.abs(evals - expected)) < 1e-10


def test_hamiltonian_goes_complex_only_when_needed(ops):
    p = QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "alpha_x": 0.3,
                                   "alpha_0": 0.2, "horizon": 1.0})
    assert not np.iscomplexobj(hamiltonian_matrix(p, ops, 0.5))
    q = QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "alpha_p": 0.1,
                                   "horizon": 1.0})
    assert np.iscomplexobj(hamiltonian_matrix(q, ops, 0.5))


def test_ground_state_moments(ops):
    st = moments_from_state(ground_state(ops), ops)
    assert st.mean_x == pytest.approx(0.0, abs=1e-14)
    assert st.var_x == pytest.approx(0.5, rel=1e-13)
    assert st.var_p == pytest.approx(0.5, rel=1e-13)
    assert st.cov_xp == pytest.approx(0.0, abs=1e-14)


def test_coherent_state_moments(ops):
    alpha = 0.9 - 0.4j
    st = moments_from_state(coherent_state(ops, alpha), ops)
    assert st.mean_x == pytest.approx(math.sqrt(2.0) * alpha.real, rel=1e-12)
    assert st.mean_p == pytest.approx(math.sqrt(2.0) * alpha.imag, rel=1e-12)
    assert st.var_x == pytest.approx(0.5, rel=1e-12)
    assert st.uncertainty_product() == pytest.approx(0.25, rel=1e-11)


def test_coherent_state_tail_warning():
    small = build_operators(8, 1.0, 1.0)
    with pytest.warns(UserWarning):
        coherent_state(small, 2.0 + 0.0j)


def test_coherent_amplitude_with_no_weight_in_the_basis_is_domain_error(ops):
    for amplitude in (40.0, 1e200):
        with pytest.raises(DomainError, match=f"n={ops.n}"):
            coherent_state(ops, amplitude)


def test_non_finite_initial_state_is_domain_error(ops):
    params = QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "horizon": 1.0})
    with pytest.raises(DomainError, match="normalized"):
        propagate_state(np.full(ops.n, np.nan), params, np.array([0.0, 1.0]), ops)


def test_number_state_variance(ops):
    # |1> has var_x = 3 hbar / (2 m w)
    psi = np.zeros(ops.n, dtype=complex)
    psi[1] = 1.0
    st = moments_from_state(psi, ops)
    assert st.var_x == pytest.approx(1.5, rel=1e-13)
    assert st.var_p == pytest.approx(1.5, rel=1e-13)
    assert st.mean_x == pytest.approx(0.0, abs=1e-14)


# -- propagation ---------------------------------------------------------------


def driven_params(horizon=2.0 * math.pi):
    return DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1,
                      drive_frequency=1.0, horizon=horizon).to_params()


def test_propagation_matches_closed_form():
    params = driven_params()
    ops = build_operators(64, 1.0, 1.0)
    grid = np.linspace(0.0, params.horizon, 60)
    run = propagate_state(ground_state(ops), params, grid, ops)
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1, drive_frequency=1.0,
                      horizon=params.horizon)
    from tdqho.scenarios import driven_moments_exact
    ref = driven_moments_exact(spec, spec.ground_state(), grid)
    scale = np.max(np.abs(ref.mean_x))
    assert np.max(np.abs(run.moments.mean_x - ref.mean_x)) < 1e-4 * scale
    assert np.max(np.abs(run.moments.var_x - ref.var_x)) < 1e-9
    assert run.reliable


def test_propagation_norm_preserved():
    params = driven_params()
    ops = build_operators(32, 1.0, 1.0)
    grid = np.linspace(0.0, params.horizon, 30)
    run = propagate_state(ground_state(ops), params, grid, ops)
    assert np.max(np.abs(run.norms - 1.0)) < 1e-10
    assert run.max_norm_drift == np.max(np.abs(run.norms - 1.0))


def test_propagation_step_refinement():
    # halving the step shrinks the closed-form error by about the expected
    # second-order factor
    params = driven_params()
    ops = build_operators(48, 1.0, 1.0)
    grid = np.linspace(0.0, params.horizon, 20)
    spec = DrivenSpec(m=1.0, omega=1.0, drive_strength=0.1, drive_frequency=1.0,
                      horizon=params.horizon)
    from tdqho.scenarios import driven_moments_exact
    ref = driven_moments_exact(spec, spec.ground_state(), grid)
    errs = []
    for dt in (2e-2, 1e-2):
        run = propagate_state(ground_state(ops), params, grid, ops, dt=dt)
        errs.append(np.max(np.abs(run.moments.mean_x - ref.mean_x)))
    assert errs[0] / errs[1] > 3.0


def test_basis_refinement_converged():
    params = driven_params(horizon=math.pi)
    grid = np.linspace(0.0, math.pi, 15)
    runs = []
    for n in (48, 96):
        ops_n = build_operators(n, 1.0, 1.0)
        runs.append(propagate_state(ground_state(ops_n), params, grid, ops_n))
    for field in ("mean_x", "mean_p", "var_x", "var_p"):
        a = getattr(runs[0].moments, field)
        b = getattr(runs[1].moments, field)
        assert np.max(np.abs(a - b)) < 1e-8


def test_truncation_alarm_on_small_basis():
    params = driven_params(horizon=4.0)
    ops = build_operators(8, 1.0, 1.0)
    psi0 = np.zeros(8, dtype=complex)
    psi0[4] = 1.0  # high starting state leaks upward quickly
    run = propagate_state(psi0, params, np.linspace(0.0, 4.0, 10), ops)
    assert not run.reliable
    assert run.max_top_population > 1e-8


def test_grid_without_origin_is_prepended():
    params = driven_params(horizon=2.0)
    ops = build_operators(24, 1.0, 1.0)
    # a repeated time is allowed and samples the same state twice
    grid = np.array([0.5, 1.0, 1.0, 2.0])
    run = propagate_state(ground_state(ops), params, grid, ops)
    assert run.moments.t[0] == 0.0
    assert len(run.moments.t) == 5
    assert np.array_equal(run.states[:, 2], run.states[:, 3])


@pytest.mark.parametrize("grid, match", [
    ([0.0, 2.0, 1.0], r"grid decreases from t=2\.0 to t=1\.0"),
    ([0.0, -1.0], r"t=-1\.0 is outside \[0, 2\.0\]"),
    ([0.0, 5.0], r"t=5\.0 is outside \[0, 2\.0\]"),
    ([0.0, math.nan, 1.0], r"t=nan is outside"),
    ([], r"got shape \(0,\)"),
    ([[0.0, 1.0], [1.5, 2.0]], r"got shape \(2, 2\)"),
], ids=["decreasing", "negative", "past-horizon", "nan", "empty", "2d"])
def test_grid_outside_the_horizon_or_decreasing_is_domain_error(grid, match):
    # each would label a state with a time it was not stepped to
    params = QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "alpha_x": 0.2,
                                        "horizon": 2.0})
    ops = build_operators(32, 1.0, 1.0)
    with pytest.raises(DomainError, match=match):
        propagate_state(ground_state(ops), params, grid, ops)


# -- Taylor stepping -----------------------------------------------------------


def _hamiltonian_params(hbar, momentum=True):
    """All six coefficients, or no momentum drive and cross term (a real H)."""
    return QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.1, "rate": 0.05},
        "omega": 0.9, "alpha_x": 0.2, "alpha_p": -0.15 if momentum else 0.0,
        "alpha_xp": 0.07 if momentum else 0.0, "alpha_0": 0.3, "hbar": hbar,
        "horizon": 2.0})


def _hamiltonian(n, hbar, momentum=True):
    ops = build_operators(n, 1.1, 0.9, hbar)
    return hamiltonian_matrix(_hamiltonian_params(hbar, momentum), ops, 0.4), ops


def _substeps(hmat, h_over_hbar):
    return max(1, math.ceil(np.abs(hmat * h_over_hbar).sum(axis=0).max() / TAYLOR_THETA))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("h, split, momentum", [
    pytest.param(3e-3, False, True, id="0.003-False"),
    pytest.param(0.5, True, True, id="0.5-True"),
    pytest.param(3e-3, False, False, id="0.003-False-real"),
    pytest.param(0.5, True, False, id="0.5-True-real")])
def test_taylor_step_matches_expm(n, h, split, momentum):
    hbar = 0.7
    hmat, ops = _hamiltonian(n, hbar, momentum)
    assert np.iscomplexobj(hmat) is momentum
    psi = coherent_state(ops, 0.8 - 0.5j)
    substeps = _substeps(hmat, h / hbar)
    got, matvecs = _taylor_step(hmat, psi, h / hbar, substeps, 0.4)
    assert got.shape == psi.shape
    ref = scipy.linalg.expm(-1j * hmat * h / hbar) @ psi
    assert np.max(np.abs(got - ref)) < 1e-13
    if split:
        # ||H h / hbar||_1 >> 1: substeps take more products than one series may
        assert substeps > 5 and matvecs > TAYLOR_MAX_TERMS
    else:
        assert substeps == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["state", "hamiltonian"])
def test_taylor_step_names_time_of_non_finite_input(where):
    hmat, ops = _hamiltonian(16, 1.0)
    psi = ground_state(ops)
    if where == "state":
        psi[3] = np.nan
    else:
        hmat[2, 3] = np.inf
    with pytest.raises(IntegrationError, match="t=1.25") as exc:
        _taylor_step(hmat, psi, 1e-3, 1, 1.25)
    assert exc.value.t == 1.25


@pytest.mark.parametrize("momentum", [True, False], ids=["complex", "real"])
def test_hamiltonian_matrix_is_the_stepped_hamiltonian(monkeypatch, momentum):
    params = _hamiltonian_params(1.0, momentum)
    ops = build_operators(32, 1.1, 0.9)
    stepped = []

    def capture(hmat, psi, h_over_hbar, substeps, t):
        stepped.append((hmat.copy(), t + 0.5 * h_over_hbar))  # hbar = 1
        return _taylor_step(hmat, psi, h_over_hbar, substeps, t)

    monkeypatch.setattr(tdqho.oracle, "_taylor_step", capture)
    propagate_state(ground_state(ops), params, np.linspace(0.0, 0.5, 3), ops, dt=0.01)
    assert len(stepped) == 50
    for hmat, t in stepped:
        single = hamiltonian_matrix(params, ops, t)
        assert np.iscomplexobj(hmat) is momentum and np.iscomplexobj(single) is momentum
        assert np.max(np.abs(hmat - single)) <= 1e-14 * np.max(np.abs(single))
    # the operator sum written out, at the last midpoint
    m, w = 1.1 * math.exp(0.05 * t), 0.9
    explicit = (ops.p2 / (2.0 * m) + 0.5 * m * w * w * ops.x2 + 0.2 * ops.x
                + 0.3 * np.eye(ops.n))
    if momentum:
        explicit = explicit - 0.15 * ops.p + 0.07 * ops.xp_anti
    assert np.max(np.abs(single - explicit)) < 1e-13


def _runaway_params():
    # m = exp(30 t) reaches 1e26 by t = 2: finite, but its norm asks for about
    # 1e11 substeps at the end
    return QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.0, "rate": 30.0},
        "omega": 1.0, "horizon": 2.0})


def test_runaway_hamiltonian_fails_fast_naming_the_step():
    ops = build_operators(16, 1.0, 1.0)
    t0 = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"substeps .* at t=0\.3") as exc:
        propagate_state(ground_state(ops), _runaway_params(), np.linspace(0.0, 2.0, 50), ops)
    assert time.perf_counter() - t0 < 1.0
    assert 0.3 < exc.value.t < 0.4


def test_norm_drift_before_a_runaway_step_is_reported_first(monkeypatch):
    def leaky(hmat, psi, h_over_hbar, substeps, t):
        return 1.01 * psi, 1

    monkeypatch.setattr(tdqho.oracle, "_taylor_step", leaky)
    ops = build_operators(16, 1.0, 1.0)
    with pytest.raises(IntegrationError, match="norm drift .* at t=0.04"):
        propagate_state(ground_state(ops), _runaway_params(), np.linspace(0.0, 2.0, 51), ops)


def test_criterion_1_run_averages_at_most_8_matvecs_per_step():
    params = driven_params(horizon=6.0 * 2.0 * math.pi)
    ops = build_operators(64, 1.0, 1.0)
    grid = np.linspace(0.0, params.horizon, 2000)
    run = propagate_state(ground_state(ops), params, grid, ops,
                          dt=5e-4 * 2.0 * math.pi)
    assert run.steps > 10_000
    assert run.matvecs <= 8 * run.steps


def test_oracle_imports_nothing_from_the_analytic_path():
    tree = ast.parse(Path(tdqho.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"pipeline", "integrators", "scenarios"}
