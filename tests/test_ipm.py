from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    ConfigError,
    InfeasiblePointError,
    IpmParams,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    default_init,
    eval_f,
    generate_ground_truth,
    ipm_solve,
    rank_read_out,
    recover_solution,
    sample_covariance,
    sample_observations,
    sparse_init,
)
import lsfa.ipm
import lsfa.newton
from lsfa.harness import RunConfig
from lsfa.ipm import extrapolated_start
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
        IpmParams(gamma=0.5, eps=0.0)


@pytest.mark.parametrize("name", ["gamma", "tau0", "eps"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        IpmParams(**kwargs)


@pytest.mark.parametrize("name", ["eta_rank", "eta_supp"])
@pytest.mark.parametrize("bad", [2.0, -1.0, np.nan])
def test_read_out_thresholds_checked_before_any_solve(name, bad, monkeypatch):
    # eta_supp = 2 would read out an empty support, eta = -1 would keep every entry
    def no_solve(*args, **kwargs):
        raise AssertionError("a barrier level was solved")

    monkeypatch.setattr(lsfa.ipm, "solve_tau_min", no_solve)
    problem = ProblemData(random_spd(np.random.default_rng(41), 3, shift=2.0), C=0.5, mu=10.0)
    with pytest.raises(ConfigError, match=rf"{name} must be in \(0, 1\), got {bad}"):
        ipm_solve(problem, default_init(problem), IpmParams(gamma=0.1), **{name: bad})


def test_params_build_default_newton():
    # the barrier schedule extends the inner solver's parameters, defaults included
    params = IpmParams(gamma=0.5)
    assert isinstance(params, NewtonParams)
    assert {f.name: getattr(params, f.name) for f in fields(NewtonParams)} == asdict(
        NewtonParams(gamma=0.5))


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
    while params.tau0 * params.theta**count > params.eps:
        count += 1
    assert solution.n_outer == count == 19


def test_zero_solves_when_tau0_below_epsilon():
    rng = np.random.default_rng(43)
    sigma = random_spd(rng, 3)
    problem = ProblemData(sigma, C=1.0, mu=1.0)
    params = IpmParams(gamma=0.5, tau0=1e-8, eps=1e-6)
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
    assert solution.final_residual_normalized <= params.residual_tol
    assert solution.final_tau == params.tau0 * params.theta ** (solution.n_outer - 1)


def test_solution_matrices_positive_definite(small_ipm_run):
    _, _, solution = small_ipm_run
    np.linalg.cholesky(solution.L_star)
    np.linalg.cholesky(solution.S_star)
    assert_allclose(solution.L_star, SymmetricBasis(6).vec_to_mat(solution.ell_star))


def test_iteration_cap_propagates():
    rng = np.random.default_rng(44)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1, max_inner_iters=1)
    solution = ipm_solve(problem, default_init(problem), params)
    assert solution.status == "iteration-cap"


@pytest.mark.parametrize("start", [default_init, sparse_init])
def test_stalled_levels_end_early_and_report_the_iteration_cap(monkeypatch, start):
    # at levels 0-2 of this p=4 draw the prox brings in coordinates that the
    # keep floor pins at zero, and every step leaves h_tau and the residual
    # where they were: each level ran to the 200-step cap, 612 steps in all
    truth = generate_ground_truth(4, 1, 0.5, 2.0, 0)
    problem = ProblemData(sample_covariance(sample_observations(truth, 200, seed=1)), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1, eps=1e-2)
    init = start(problem) if start is default_init else start(problem, params)
    statuses = {}
    solve = lsfa.ipm.solve_tau_min

    def spy(init, barrier, params, outer_index):
        result = solve(init, barrier, params, outer_index)
        statuses[outer_index] = result.status
        return result

    monkeypatch.setattr(lsfa.ipm, "solve_tau_min", spy)
    solution = ipm_solve(problem, init, params)
    assert [statuses[k] for k in range(3)] == ["stalled"] * 3
    assert solution.status == "iteration-cap" and solution.n_outer == 6
    assert solution.n_inner_total < 100


def test_infeasible_init_rejected():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    params = IpmParams(gamma=0.5)
    with pytest.raises(InfeasiblePointError):
        ipm_solve(problem, (np.eye(3), -np.eye(3)), params)


@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_init_rejected(bad, where):
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    L0 = 0.5 * np.eye(3)
    L0[where] = L0[where[::-1]] = bad
    with pytest.raises(InfeasiblePointError):
        ipm_solve(problem, (L0, 0.5 * np.eye(3)), IpmParams(gamma=0.5))


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


# ---------- extrapolated warm starts ----------

@pytest.fixture(scope="module")
def default_problem():
    truth = generate_ground_truth(p=40, r=5, density=0.05, snr=1.0, seed=7)
    samples = sample_observations(truth, 1200, seed=8)
    return ProblemData(sample_covariance(samples), C=0.5, mu=100.0)


@pytest.mark.parametrize("theta, max_steps", [(0.5, 38), (0.8, 80)])
def test_extrapolated_starts_take_full_steps_on_the_default_instance(default_problem, theta,
                                                                     max_steps):
    # from the previous level's solution: 48 and 184 steps, and the first
    # step of every level from 1 on backtracks once at theta = 0.5
    params = replace(RunConfig().ipm_params(), theta=theta)
    solution = ipm_solve(default_problem, default_init(default_problem), params)
    assert solution.status == "converged"
    assert solution.n_inner_total <= max_steps
    assert {row.outer_iter for row in solution.traces} == set(range(solution.n_outer))
    if theta == 0.5:
        assert all(row.n_backtracks == 0 for row in solution.traces if row.outer_iter >= 2)
    # no second pass of the line search ran, so alpha = beta^n_backtracks
    assert all(row.step_alpha == lsfa.newton.BACKTRACK_BETA**row.n_backtracks
               for row in solution.traces)


def test_inexact_newton_cg_keeps_the_exact_solves_path(default_problem, monkeypatch):
    # the default instance's sets (|T| ~ 600) are solved by conjugate
    # gradients; solved to the forcing term instead of to 1e-12 (both of its
    # caps at the exact tolerance), the run takes the same steps to the same
    # support and objective, for fewer iterations
    params = RunConfig().ipm_params()
    runs = []
    for cap in (None, lsfa.newton._EXACT_RTOL):
        if cap is not None:
            monkeypatch.setattr(lsfa.newton, "_FORCING_CAP", cap)
            monkeypatch.setattr(lsfa.newton, "_FORCING_MAX", cap)
        runs.append(ipm_solve(default_problem, default_init(default_problem), params))
    inexact, exact = runs
    assert all(row.cg_iterations > 0 and row.cg_rtol == lsfa.newton._EXACT_RTOL for row in exact.traces)
    assert (inexact.status, inexact.n_outer) == (exact.status, exact.n_outer) == ("converged", 19)
    assert [row.outer_iter for row in inexact.traces] == [row.outer_iter for row in exact.traces]
    np.testing.assert_array_equal(inexact.s_star != 0, exact.s_star != 0)

    def objective(sol):
        return eval_f(sol.L_star, sol.S_star, default_problem) + default_problem.C * np.count_nonzero(sol.s_star)

    assert objective(inexact) == pytest.approx(objective(exact), rel=1e-8)
    assert sum(row.cg_iterations for row in inexact.traces) < sum(row.cg_iterations for row in exact.traces)


def test_extrapolated_start_moves_only_coordinates_nonzero_in_both_centres():
    basis = SymmetricBasis(3)
    previous = Iterate.from_matrices(np.diag([3.0, 2.0, 1.0]),
                                     np.array([[2.0, 0.4, 0.0], [0.4, 2.0, 0.3], [0.0, 0.3, 2.0]]),
                                     basis)
    current = Iterate.from_matrices(np.diag([2.0, 1.5, 0.5]),
                                    np.array([[1.8, 0.2, 0.1], [0.2, 1.8, 0.0], [0.1, 0.0, 1.8]]),
                                    basis)
    predicted = extrapolated_start(previous, current, 0.5)
    assert_allclose(predicted.L, np.diag([1.5, 1.25, 0.25]), rtol=1e-15)
    both = (previous.s != 0) & (current.s != 0)
    assert_allclose(predicted.s[both], (1.5 * current.s - 0.5 * previous.s)[both], rtol=1e-15)
    # zero in either centre: x_k's value, so a zero stays zero and the entry
    # that just entered (0.1) does not move
    assert np.array_equal(predicted.s[~both], current.s[~both])
    assert np.count_nonzero(~both) == 2 and predicted.S[0, 2] == 0.1 and predicted.S[1, 2] == 0.0


def test_extrapolated_start_falls_back_to_the_last_centre_when_infeasible():
    basis = SymmetricBasis(2)
    previous = Iterate.from_matrices(np.diag([2.0, 1.0]), np.eye(2), basis)
    current = Iterate.from_matrices(np.diag([1.0, 0.3]), np.eye(2), basis)
    assert not np.all(np.linalg.eigvalsh(1.5 * current.L - 0.5 * previous.L) > 0)
    assert extrapolated_start(previous, current, 0.5) is current


def test_extrapolation_waits_for_two_converged_levels(monkeypatch):
    # level 1 reports a non-converged status: levels 2 and 3 lack two
    # converged centres and start where the level before them ended
    rng = np.random.default_rng(46)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    params = IpmParams(gamma=0.1, eps=0.5 * 0.5**6)
    starts, results = [], []
    solve = lsfa.ipm.solve_tau_min

    def spy(init, barrier, params, outer_index):
        result = solve(init, barrier, params, outer_index)
        if outer_index == 1:
            result = replace(result, status="iteration-cap")
        starts.append((outer_index, init))
        results.append((outer_index, result.iterate))
        return result

    monkeypatch.setattr(lsfa.ipm, "solve_tau_min", spy)
    solution = ipm_solve(problem, default_init(problem), params)
    assert solution.status == "iteration-cap" and solution.n_outer == 6
    assert [k for k, _ in starts] == list(range(6))
    ends = dict(results)
    for k in (1, 2, 3):
        assert starts[k][1] is ends[k - 1]
    for k in (4, 5):
        assert starts[k][1] is not ends[k - 1]
        assert_allclose(starts[k][1].ell, 1.5 * ends[k - 1].ell - 0.5 * ends[k - 2].ell, rtol=1e-14)


@pytest.mark.parametrize("seed, start", [(4, default_init), (19, sparse_init)])
def test_extrapolated_schedule_converges_with_a_row_on_every_level(seed, start):
    # seed 4: the solve from the predicted point of level 5 ends in a
    # line-search failure, and only the retry from the last centre converges;
    # seed 19: the predicted point already meets the residual rule at level
    # 17, which the rule tested before the first step left without a row
    truth = generate_ground_truth(10, 2, 0.1, 1.0, seed)
    problem = ProblemData(sample_covariance(sample_observations(truth, 300, seed=seed + 1)),
                          C=0.5, mu=300.0)
    params = RunConfig().ipm_params()
    init = start(problem) if start is default_init else start(problem, params)
    solution = ipm_solve(problem, init, params)
    assert solution.status == "converged"
    assert {row.outer_iter for row in solution.traces} == set(range(solution.n_outer))
