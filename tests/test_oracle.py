import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tdqho.oracle
from tdqho.errors import DomainError, IntegrationError
from tdqho.model import QuadraticParams
from tdqho.oracle import (MAX_N, TAYLOR_MAX_TERMS, _taylor_step, build_operators,
                          coherent_state, ground_state, hamiltonian_matrix,
                          moments_from_state, propagate_state)
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
    grid = np.linspace(0.5, 2.0, 4)
    run = propagate_state(ground_state(ops), params, grid, ops)
    assert run.times[0] == 0.0
    assert len(run.times) == 5


# -- Taylor stepping -----------------------------------------------------------


def _complex_hamiltonian(n, hbar):
    params = QuadraticParams.from_dict({
        "m": {"kind": "exponential", "prefactor": 1.1, "rate": 0.05},
        "omega": 0.9, "alpha_x": 0.2, "alpha_p": -0.15, "alpha_xp": 0.07,
        "alpha_0": 0.3, "hbar": hbar, "horizon": 2.0})
    ops = build_operators(n, 1.1, 0.9, hbar)
    return hamiltonian_matrix(params, ops, 0.4), ops


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("h, split", [(3e-3, False), (0.5, True)])
def test_taylor_step_matches_expm(n, h, split):
    hbar = 0.7
    hmat, ops = _complex_hamiltonian(n, hbar)
    assert np.iscomplexobj(hmat)
    psi = coherent_state(ops, 0.8 - 0.5j)
    got, matvecs = _taylor_step(hmat, psi, h / hbar, 0.4)
    ref = scipy.linalg.expm(-1j * hmat * h / hbar) @ psi
    assert np.max(np.abs(got - ref)) < 1e-13
    norm = np.abs(hmat * h / hbar).sum(axis=0).max()
    if split:
        # ||H h / hbar||_1 >> 1: substeps take more products than one series may
        assert norm > 10.0 and matvecs > TAYLOR_MAX_TERMS
    else:
        assert norm < 2.0


@pytest.mark.parametrize("where", ["state", "hamiltonian"])
def test_taylor_step_names_time_of_non_finite_input(where):
    hmat, ops = _complex_hamiltonian(16, 1.0)
    psi = ground_state(ops)
    if where == "state":
        psi[3] = np.nan
    else:
        hmat[2, 3] = np.inf
    with pytest.raises(IntegrationError, match="t=1.25") as exc:
        _taylor_step(hmat, psi, 1e-3, 1.25)
    assert exc.value.t == 1.25


def test_criterion_1_run_averages_at_most_8_matvecs_per_step(monkeypatch):
    params = driven_params(horizon=6.0 * 2.0 * math.pi)
    ops = build_operators(64, 1.0, 1.0)
    steps = []

    def counted(*args):
        steps.append(None)
        return hamiltonian_matrix(*args)

    monkeypatch.setattr(tdqho.oracle, "hamiltonian_matrix", counted)
    grid = np.linspace(0.0, params.horizon, 2000)
    run = propagate_state(ground_state(ops), params, grid, ops,
                          dt=5e-4 * 2.0 * math.pi)
    assert len(steps) > 10_000
    assert run.matvecs <= 8 * len(steps)


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
