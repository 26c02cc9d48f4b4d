import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    BarrierObjective,
    BaselineParams,
    InfeasiblePointError,
    Iterate,
    ProblemData,
    SymmetricBasis,
    TraceRow,
    bcd_solve,
    grad_h_tau,
    prox_l0_vec,
)
from conftest import random_spd


@pytest.fixture(scope="module")
def bcd_run():
    # moderate barrier level so the first-order method converges quickly
    rng = np.random.default_rng(50)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(5)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    params = BaselineParams(gamma=0.1, max_iters=5000)
    result = bcd_solve(init, barrier, params)
    return problem, barrier, params, result


def test_params_validation():
    with pytest.raises(ValueError):
        BaselineParams(gamma=0.0)
    with pytest.raises(ValueError):
        BaselineParams(gamma=0.5, step_ell=-1.0)
    with pytest.raises(ValueError):
        BaselineParams(gamma=0.5, max_iters=0)


@pytest.mark.parametrize("name", ["gamma", "step_ell", "residual_tol"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        BaselineParams(**kwargs)


def test_bcd_converges_on_small_instance(bcd_run):
    _, _, params, result = bcd_run
    assert result.status == "converged"
    assert result.residual.norm_normalized <= params.residual_tol


def test_bcd_h_monotone(bcd_run):
    _, _, _, result = bcd_run
    hs = [row.objective_h_tau for row in result.rows]
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


def test_bcd_final_iterate_strictly_feasible(bcd_run):
    _, _, _, result = bcd_run
    assert result.iterate.is_strictly_feasible
    # finite h along the trace certifies feasibility of every accepted iterate
    assert all(np.isfinite(row.objective_h_tau) for row in result.rows)


def test_bcd_near_fixed_point_at_convergence(bcd_run):
    _, barrier, params, result = bcd_run
    it = result.iterate
    g_s = grad_h_tau(it, barrier)[1]
    moved = prox_l0_vec(it.s - params.gamma * g_s, params.gamma, barrier.problem.C)
    # zero block reproduced exactly; supported block moves by at most gamma*|g|
    zero = it.s == 0
    assert_allclose(moved[zero], 0.0)
    drift = np.abs(moved - it.s).max()
    assert drift <= params.gamma * np.abs(g_s).max() + 1e-15


def test_prox_fixed_point_algebraic():
    # if g vanishes on the support, entries at or above the keep threshold
    # and exact zeros reproduce themselves through the prox-gradient map
    gamma, C = 0.25, 1.0
    thr = np.sqrt(2 * gamma * C)
    s = np.array([2.0, 0.0, -thr * 1.01, 0.0])
    g = np.array([0.0, 0.5, 0.0, -1.0])  # |gamma*g| stays below thr off support
    stepped = prox_l0_vec(s - gamma * g, gamma, C)
    assert_allclose(stepped, s)


def test_bcd_trace_schema_matches_newton(bcd_run):
    _, _, _, result = bcd_run
    row = result.rows[0]
    assert isinstance(row, TraceRow)
    assert row.direction_kind == "bcd"
    assert row.outer_iter == 0
    assert result.rows[-1].inner_iter == len(result.rows)


def test_bcd_rejects_infeasible_init():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    basis = SymmetricBasis(3)
    bad = Iterate.from_matrices(np.eye(3), -np.eye(3), basis)
    with pytest.raises(InfeasiblePointError):
        bcd_solve(bad, BarrierObjective(problem, 0.1), BaselineParams(gamma=0.5))


def test_bcd_iteration_cap():
    rng = np.random.default_rng(51)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    basis = SymmetricBasis(4)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    result = bcd_solve(init, BarrierObjective(problem, 0.1),
                       BaselineParams(gamma=0.1, max_iters=3))
    assert result.status == "iteration-cap"
    assert result.n_iters == 3
