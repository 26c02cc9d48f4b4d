import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    InfeasiblePointError,
    IpmParams,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    default_init,
    ipm_solve,
    rank_read_out,
    recover_solution,
    sparse_init,
)
from conftest import random_spd


@pytest.fixture(scope="module")
def small_ipm_run():
    rng = np.random.default_rng(40)
    problem = ProblemData(random_spd(rng, 6, shift=2.0), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1)
    solution = ipm_solve(problem, default_init(problem), params)
    return problem, params, solution


# ---------- parameters ----------

def test_params_validation():
    with pytest.raises(ValueError):
        IpmParams(gamma=0.0)
    with pytest.raises(ValueError):
        IpmParams(gamma=0.5, theta=1.0)
    with pytest.raises(ValueError):
        IpmParams(gamma=0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="disagrees"):
        IpmParams(gamma=0.5, newton=NewtonParams(gamma=0.25))


@pytest.mark.parametrize("name", ["gamma", "tau0", "epsilon"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        IpmParams(**kwargs)


def test_params_build_default_newton():
    params = IpmParams(gamma=0.5)
    assert params.newton.gamma == 0.5


# ---------- default initialization ----------

def test_default_init_identity():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    L0, S0 = default_init(problem)
    assert_allclose(L0, 0.5 * np.eye(3))
    assert_allclose(S0, 0.5 * np.eye(3))


def test_default_init_reconstructs_sample_covariance():
    rng = np.random.default_rng(41)
    sigma = random_spd(rng, 5)
    problem = ProblemData(sigma, C=1.0, mu=1.0)
    L0, S0 = default_init(problem)
    assert_allclose(L0 + S0, sigma, rtol=1e-15)


def test_default_init_strictly_feasible():
    rng = np.random.default_rng(42)
    problem = ProblemData(random_spd(rng, 4), C=1.0, mu=1.0)
    L0, S0 = default_init(problem)
    basis = SymmetricBasis(4)
    assert Iterate.from_matrices(L0, S0, basis).is_strictly_feasible


# ---------- barrier schedule ----------

def test_barrier_schedule_exact(small_ipm_run):
    problem, params, solution = small_ipm_run
    taus = []
    for row in solution.traces:
        if not taus or row.tau != taus[-1]:
            taus.append(row.tau)
    expected = [params.tau0 * params.theta**k for k in range(solution.n_outer)]
    assert taus == expected  # exact float equality: same closed-form expression


def test_outer_count_matches_closed_form(small_ipm_run):
    problem, params, solution = small_ipm_run
    count = 0
    while params.tau0 * params.theta**count > params.epsilon:
        count += 1
    assert solution.n_outer == count == 19


def test_zero_solves_when_tau0_below_epsilon():
    rng = np.random.default_rng(43)
    sigma = random_spd(rng, 3)
    problem = ProblemData(sigma, C=1.0, mu=1.0)
    params = IpmParams(gamma=0.5, tau0=1e-8, epsilon=1e-6)
    solution = ipm_solve(problem, default_init(problem), params)
    assert solution.n_outer == 0
    assert solution.traces == []
    assert_allclose(solution.L_star, 0.5 * sigma, rtol=1e-15)
    assert_allclose(solution.S_star, 0.5 * sigma, rtol=1e-15)
    assert solution.status == "empty-schedule"
    assert solution.final_tau == params.tau0


# ---------- trace bookkeeping ----------

def test_trace_completeness(small_ipm_run):
    _, params, solution = small_ipm_run
    assert len(solution.traces) == solution.n_inner_total
    stamps = [row.wall_time_ns for row in solution.traces]
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))
    # inner iterations restart from 1 inside each outer solve
    for outer in range(solution.n_outer):
        inner = [row.inner_iter for row in solution.traces if row.outer_iter == outer]
        assert inner == list(range(1, len(inner) + 1))


def test_h_monotone_within_each_solve(small_ipm_run):
    _, _, solution = small_ipm_run
    for outer in range(solution.n_outer):
        hs = [r.objective_h_tau for r in solution.traces if r.outer_iter == outer]
        assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


def test_converged_run(small_ipm_run):
    _, params, solution = small_ipm_run
    assert solution.status == "converged"
    assert solution.final_residual_normalized <= params.newton.residual_tol
    assert solution.final_tau == params.tau0 * params.theta ** (solution.n_outer - 1)


def test_solution_matrices_positive_definite(small_ipm_run):
    _, _, solution = small_ipm_run
    np.linalg.cholesky(solution.L_star)
    np.linalg.cholesky(solution.S_star)
    assert_allclose(solution.L_star, SymmetricBasis(6).vec_to_mat(solution.ell_star))


def test_iteration_cap_propagates():
    rng = np.random.default_rng(44)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1, newton=NewtonParams(gamma=0.1, max_inner_iters=1))
    solution = ipm_solve(problem, default_init(problem), params)
    assert solution.status == "iteration-cap"


def test_infeasible_init_rejected():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    params = IpmParams(gamma=0.5)
    with pytest.raises(InfeasiblePointError):
        ipm_solve(problem, (np.eye(3), -np.eye(3)), params)


# ---------- solution recovery ----------

def test_recover_rank_with_separated_spectrum():
    basis = SymmetricBasis(3)
    it = Iterate.from_matrices(np.diag([1.0, 1e-12, 1e-12]), np.eye(3), basis)
    solution = recover_solution(it, eta_rank=1e-6)
    assert solution.rank_estimate == 1


def test_recover_support_diagonal():
    basis = SymmetricBasis(3)
    it = Iterate.from_matrices(np.eye(3), np.diag([1.0, 2.0, 3.0]), basis)
    solution = recover_solution(it)
    assert_allclose(solution.support, np.eye(3, dtype=bool))


def test_recover_thresholds_configurable():
    basis = SymmetricBasis(2)
    S = np.array([[1.0, 0.01], [0.01, 1.0]])
    it = Iterate.from_matrices(np.diag([1.0, 0.05]), S, basis)
    loose = recover_solution(it, eta_rank=0.1, eta_supp=0.1)
    tight = recover_solution(it, eta_rank=1e-3, eta_supp=1e-3)
    assert loose.rank_estimate == 1 and tight.rank_estimate == 2
    assert loose.support.sum() == 2 and tight.support.sum() == 4


def test_recover_rank_drops_barrier_floor():
    # eigenvalues within BARRIER_FLOOR * tau are held up by the barrier
    basis = SymmetricBasis(3)
    it = Iterate.from_matrices(np.diag([10.0, 5.0, 25e-6]), np.eye(3), basis)
    assert recover_solution(it, eta_rank=1e-6).rank_estimate == 3
    assert recover_solution(it, eta_rank=1e-6, final_tau=1e-6).rank_estimate == 2


def test_rank_read_out_dominant_factors_above_noise_tail():
    factors = [40.0, 33.0, 25.0, 19.0, 12.0]
    tail = list(np.geomspace(3.5, 0.04, 20))
    floor = [3e-6, 1e-6]
    eigs = np.array(factors + tail + floor)
    assert rank_read_out(eigs, 1e-6, tau=2e-6) == 5
    # a clean low-rank spectrum, or one too short for a growth ratio, keeps
    # every eigenvalue above the floors
    assert rank_read_out(np.array(factors + floor), 1e-6, tau=2e-6) == 5
    assert rank_read_out(np.array([1.0, 0.05]), 1e-3) == 2
    assert rank_read_out(np.array([0.0, 0.0]), 1e-6) == 0


def test_sparse_init_feasible_and_deterministic():
    rng = np.random.default_rng(45)
    problem = ProblemData(random_spd(rng, 6, shift=2.0), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1)
    L0, S0 = sparse_init(problem, params)
    again = sparse_init(problem, params)
    assert_allclose(L0, again[0], rtol=0, atol=0)
    assert_allclose(S0, again[1], rtol=0, atol=0)
    np.linalg.cholesky(L0)
    np.linalg.cholesky(S0)
    solution = ipm_solve(problem, (L0, S0), params)
    assert solution.status == "converged"
    assert solution.n_outer == 19
