"""Acceptance suite: end-to-end checks on the default benchmark instance.

The default instance is p=40, r=5, N=1200, SNR=1 (seeds 7/8, the RunConfig
defaults) with solver weights C=0.5, mu=100, gamma=0.1 and the standard
schedule tau0=0.5, eps=1e-6; the search's constants are lsfa.newton's
(SAFEGUARD_DELTA, DECREASE_SIGMA, BACKTRACK_BETA).  Heavy runs are shared
through module-scoped fixtures.  Each criterion prints one PASS/FAIL line.
"""

import statistics
import time
from collections import Counter

import numpy as np
import pytest

from lsfa import (
    BarrierObjective,
    BaselineParams,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    bcd_solve,
    check_gamma_stationary,
    complement,
    default_init,
    descent_safeguard,
    fallback_direction,
    generate_ground_truth,
    grad_h_tau,
    hessian_blocks,
    hessian_h_tau,
    index_set_T,
    ipm_solve,
    line_search,
    newton_direction,
    prox_l0_scalar,
    recovery_metrics,
    sample_covariance,
    sample_observations,
    stationarity_residual,
)
from lsfa.harness import RunConfig, run_cv, run_generate, run_solve
from lsfa.newton import SAFEGUARD_DELTA
from conftest import random_interior_point, random_spd
from test_objective import _fd_gradient, _fd_hessian

C_DEFAULT, MU_DEFAULT, GAMMA_DEFAULT = 0.5, 100.0, 0.1


def report(number, name, passed, detail=""):
    print(f"acceptance criterion {number} ({name}): {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def instance():
    truth = generate_ground_truth(p=40, r=5, density=0.05, snr=1.0, seed=7)
    samples = sample_observations(truth, 1200, seed=8)
    problem = ProblemData(sample_covariance(samples), C=C_DEFAULT, mu=MU_DEFAULT)
    return truth, samples, problem


def _ipm_params(theta):
    cfg = RunConfig(theta=theta)
    return cfg.ipm_params()


@pytest.fixture(scope="module")
def run_theta_05(instance):
    _, _, problem = instance
    t0 = time.time()
    solution = ipm_solve(problem, default_init(problem), _ipm_params(0.5))
    return solution, time.time() - t0


@pytest.fixture(scope="module")
def run_theta_08(instance):
    _, _, problem = instance
    t0 = time.time()
    solution = ipm_solve(problem, default_init(problem), _ipm_params(0.8))
    return solution, time.time() - t0


@pytest.fixture(scope="module")
def bcd_at_final_tau(instance, run_theta_05):
    _, _, problem = instance
    solution, _ = run_theta_05
    basis = SymmetricBasis(problem.p)
    L0, S0 = default_init(problem)
    init = Iterate.from_matrices(L0, S0, basis)
    params = BaselineParams(gamma=GAMMA_DEFAULT, max_iters=20000)
    return bcd_solve(init, BarrierObjective(problem, solution.final_tau), params)


def test_criterion_1_outer_iteration_counts(run_theta_05, run_theta_08):
    sol5, dt5 = run_theta_05
    sol8, dt8 = run_theta_08
    ok = (
        sol5.status == "converged"
        and sol8.status == "converged"
        and abs(sol5.n_outer - 19) <= 1
        and abs(sol8.n_outer - 59) <= 1
    )
    report(
        1,
        "outer-iteration counts",
        ok,
        f"theta=0.5: {sol5.n_outer} solves ({sol5.status}, {dt5:.0f}s); "
        f"theta=0.8: {sol8.n_outer} solves ({sol8.status}, {dt8:.0f}s)",
    )


def test_criterion_2_inner_newton_speed(run_theta_05):
    solution, _ = run_theta_05
    per_solve = Counter(row.outer_iter for row in solution.traces)
    counts = [per_solve[k] for k in range(solution.n_outer) if 0.5 * 0.5**k < 1e-2]
    median = statistics.median(counts)
    report(
        2,
        "inner Newton speed",
        median <= 8,
        f"median warm-started inner iterations for tau < 1e-2: {median} (counts {counts})",
    )


def test_criterion_3_convergence_rate_dominance(run_theta_05, bcd_at_final_tau):
    solution, _ = run_theta_05
    bcd = bcd_at_final_tau
    ipm_total = solution.n_inner_total
    to_tol = next(
        (row.inner_iter for row in bcd.rows if row.residual_normalized <= 1e-4), None
    )
    if to_tol is None:
        # the baseline never reached the residual within its cap, so its
        # iterations-to-tolerance exceed the cap
        ok = bcd.n_iters >= 2 * ipm_total
        detail = (
            f"IPM total inner iterations {ipm_total}; BCD did not reach 1e-4 in "
            f"{bcd.n_iters} iterations (final residual {bcd.residual.norm_normalized:.2e})"
        )
    else:
        ok = to_tol >= 2 * ipm_total
        detail = f"IPM total inner iterations {ipm_total}; BCD needed {to_tol}"
    report(3, "convergence-rate dominance", ok, detail)


def test_criterion_4_stationarity_certificate(instance, run_theta_05):
    _, _, problem = instance
    solution, _ = run_theta_05
    basis = SymmetricBasis(problem.p)
    final = Iterate(solution.ell_star, solution.s_star, basis)
    residual_ok = solution.final_residual_normalized <= 1e-4
    rep = check_gamma_stationary(
        final, BarrierObjective(problem, solution.final_tau), GAMMA_DEFAULT, tol=1e-3
    )
    report(
        4,
        "stationarity certificate",
        residual_ok and rep.is_stationary,
        f"residual/sqrt(2m) = {solution.final_residual_normalized:.2e}; "
        f"clause violations: {rep.violations[:2]}",
    )


def test_criterion_5_derivative_correctness():
    rng = np.random.default_rng(1234)
    grad_errs, hess_errs = [], []
    for p in range(2, 7):
        for _ in range(4):
            problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 3.0))
            barrier = BarrierObjective(problem, tau=rng.uniform(0.05, 1.0))
            it, _ = random_interior_point(rng, p)
            g = np.concatenate(grad_h_tau(it, barrier))
            fd = np.concatenate(_fd_gradient(it, barrier))
            grad_errs.append(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
            if p <= 5 and len(hess_errs) < 10:
                H = hessian_h_tau(it, barrier)
                fdH = _fd_hessian(it, barrier)
                hess_errs.append(np.abs(fdH - H).max() / np.abs(H).max())
    ok = len(grad_errs) == 20 and max(grad_errs) <= 1e-6 and max(hess_errs) <= 1e-4
    report(
        5,
        "derivative correctness",
        ok,
        f"max gradient rel err {max(grad_errs):.2e} over {len(grad_errs)} points; "
        f"max Hessian rel err {max(hess_errs):.2e} over {len(hess_errs)} points",
    )


def test_criterion_6_prox_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(10_000):
        x = rng.uniform(-3, 3)
        gamma = rng.uniform(0.01, 2.0)
        C = rng.uniform(0.01, 2.0)
        cost_zero = x * x / (2 * gamma)
        cost_keep = C if x != 0 else 0.0
        expected = 0.0 if cost_zero <= cost_keep else x
        if prox_l0_scalar(x, gamma, C) != expected:
            mismatches += 1
    report(6, "prox oracle", mismatches == 0, f"{mismatches} mismatches out of 10000")


def test_criterion_7_reduced_system_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for p in (2, 3, 4, 5):
        problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 2.0))
        barrier = BarrierObjective(problem, tau=rng.uniform(0.1, 0.6))
        for _ in range(3):
            it, basis = random_interior_point(rng, p)
            g = grad_h_tau(it, barrier)
            T = index_set_T(it.s, g[1], 0.3, problem.C)
            d = newton_direction(it, T, barrier, grad=g)
            H_ll, H_ls, H_ss = hessian_blocks(it, barrier)
            m = basis.m
            Tbar = complement(T, m)
            top = np.block([
                [H_ll, H_ls[:, T], H_ls[:, Tbar]],
                [H_ls[:, T].T, H_ss[np.ix_(T, T)], H_ss[np.ix_(T, Tbar)]],
            ])
            bottom = np.hstack([np.zeros((len(Tbar), m + len(T))), np.eye(len(Tbar))])
            A = np.vstack([top, bottom])
            rhs = -np.concatenate([g[0], g[1][T], it.s[Tbar]])
            stacked = np.concatenate([d.d_ell, d.d_s[T], d.d_s[Tbar]])
            worst = max(worst, float(np.linalg.norm(A @ stacked - rhs)))
    report(7, "reduced-system equivalence", worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_8_structural_invariants(run_theta_05, run_theta_08, bcd_at_final_tau):
    problems = []
    # basis orthonormality and isometry at 1e-12
    rng = np.random.default_rng(7)
    for p in (2, 5, 9, 12):
        basis = SymmetricBasis(p)
        E = basis.elements()
        gram = np.einsum("aij,bji->ab", E, E)
        if np.abs(gram - np.eye(basis.m)).max() > 1e-12:
            problems.append(f"orthonormality violated at p={p}")
        M = rng.standard_normal((p, p))
        S = M + M.T
        if abs(np.linalg.norm(basis.mat_to_vec(S)) - np.linalg.norm(S)) > 1e-12:
            problems.append(f"isometry violated at p={p}")

    # monotone h and strict feasibility (finite h) in every recorded trace
    traces = {
        "ipm theta=0.5": run_theta_05[0].traces,
        "ipm theta=0.8": run_theta_08[0].traces,
        "bcd": bcd_at_final_tau.rows,
    }
    for name, rows in traces.items():
        if not all(np.isfinite(row.objective_h_tau) for row in rows):
            problems.append(f"{name}: non-finite h on an accepted iterate")
        by_outer = {}
        for row in rows:
            by_outer.setdefault(row.outer_iter, []).append(row.objective_h_tau)
        for outer, hs in by_outer.items():
            if not all(b <= a + 1e-9 for a, b in zip(hs, hs[1:])):
                problems.append(f"{name}: h not monotone in solve {outer}")

    # support contained in the working set after every accepted step
    rng = np.random.default_rng(71)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.2)
    basis = SymmetricBasis(5)
    it = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    params = NewtonParams(gamma=0.1)
    for _ in range(8):
        g = grad_h_tau(it, barrier)
        res = stationarity_residual(it, barrier, params.gamma, grad=g)
        if res.norm_normalized <= params.residual_tol:
            break
        d = newton_direction(it, res.T, barrier, grad=g)
        if not descent_safeguard(d, g[1], SAFEGUARD_DELTA, params.gamma):
            d = fallback_direction(it, g[0], g[1], res.T)
        ls = line_search(it, d, barrier, grad=g)
        if not ls.success:
            problems.append("instrumented run: line search failed")
            break
        if not set(np.flatnonzero(ls.iterate.s)) <= set(res.T):
            problems.append("support escaped the working set")
        it = ls.iterate

    report(8, "structural invariants", not problems, "; ".join(problems) or "all hold")


def test_criterion_9_recovery_sanity(instance, tmp_path_factory):
    # grid-search (C, mu) by held-out likelihood, refit at the winner, then
    # check the structure estimates against the generating truth
    truth, samples, _ = instance
    run_dir = tmp_path_factory.mktemp("cv")
    cfg = RunConfig(run_dir=str(run_dir))
    run_generate(cfg)
    cv = run_cv(cfg)
    refit_cfg = RunConfig(run_dir=str(run_dir), C=cv["best_C"], mu=cv["best_mu"])
    solution = run_solve(refit_cfg)
    metrics = recovery_metrics(solution, truth)
    ok = solution.rank_estimate == 5 and metrics["support_fscore"] >= 0.8
    report(
        9,
        "recovery sanity",
        ok,
        f"cv chose C={cv['best_C']}, mu={cv['best_mu']}; rank_estimate="
        f"{solution.rank_estimate} (want 5), off-diagonal support F-score="
        f"{metrics['support_fscore']:.3f} (want >= 0.8), status={solution.status}",
    )
