import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    BarrierObjective,
    ConfigError,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    check_gamma_stationary,
    evaluate_stationarity_clauses,
    grad_h_tau,
    index_set_T,
    prox_l0_scalar,
    prox_l0_vec,
    solve_tau_min,
    stationarity_residual,
)
from conftest import random_spd


# ---------- scalar prox ----------

def test_scalar_below_threshold():
    assert prox_l0_scalar(0.5, gamma=0.5, C=1.0) == 0.0


def test_scalar_above_threshold():
    assert prox_l0_scalar(1.5, gamma=0.5, C=1.0) == 1.5


def test_scalar_tie_resolves_to_zero():
    # threshold sqrt(2*0.5*1) = 1 exactly
    assert prox_l0_scalar(1.0, gamma=0.5, C=1.0) == 0.0
    assert prox_l0_scalar(-1.0, gamma=0.5, C=1.0) == 0.0


@pytest.mark.parametrize("gamma,C", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                     (np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)])
def test_scalar_rejects_bad_parameters(gamma, C):
    # unchecked, an infinite gamma or C would zero every coordinate and empty T
    with pytest.raises(ValueError):
        prox_l0_scalar(1.0, gamma, C)
    with pytest.raises(ValueError):
        prox_l0_vec(np.array([5.0, -2.0]), gamma, C)
    with pytest.raises(ValueError):
        index_set_T(np.ones(3), np.zeros(3), gamma, C)


def test_scalar_brute_force_oracle():
    # the prox must select the cheaper of the two candidates {0, x} for
    # C*|v|_0 + (v-x)^2 / (2*gamma), ties going to 0
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        x = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(0.01, 2.0)
        C = rng.uniform(0.01, 2.0)
        cost_zero = x * x / (2.0 * gamma)
        cost_keep = C if x != 0 else 0.0
        expected = 0.0 if cost_zero <= cost_keep else x
        assert prox_l0_scalar(x, gamma, C) == expected


# ---------- vector prox ----------

def test_vec_zero():
    assert_allclose(prox_l0_vec(np.zeros(4), 0.5, 1.0), np.zeros(4))


def test_vec_mixed():
    assert_allclose(prox_l0_vec(np.array([0.5, 1.5]), 0.5, 1.0), [0.0, 1.5])


def test_vec_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-3, 3, size=20)
        gamma, C = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        once = prox_l0_vec(x, gamma, C)
        assert_allclose(prox_l0_vec(once, gamma, C), once)


def test_vec_matches_scalar():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, size=30)
    got = prox_l0_vec(x, 0.3, 0.7)
    assert_allclose(got, [prox_l0_scalar(v, 0.3, 0.7) for v in x])


# ---------- index set ----------

def test_index_set_examples():
    # gamma=0.5, C=1 => threshold 1
    s = np.array([2.0, 0.0])
    g = np.array([0.0, 0.1])
    T = index_set_T(s, g, gamma=0.5, C=1.0)
    assert list(T) == [0]  # |2| >= 1 in, |-0.05| < 1 out


def test_index_set_full_support():
    s = np.array([1.0, -1.5, 2.0])
    T = index_set_T(s, np.zeros(3), gamma=0.5, C=1.0)
    assert list(T) == [0, 1, 2]


def test_index_set_shape_mismatch():
    with pytest.raises(ValueError, match="length"):
        index_set_T(np.zeros(3), np.zeros(4), 0.5, 1.0)


def test_index_set_threshold_consistency():
    # with g = 0 the set matches the support of the prox away from ties
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.uniform(-2, 2, size=15)
        gamma, C = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        T = index_set_T(s, np.zeros(15), gamma, C)
        support = np.flatnonzero(prox_l0_vec(s, gamma, C))
        assert set(support) <= set(T)
        # any discrepancy sits exactly on the tie boundary
        extra = set(T) - set(support)
        thr = np.sqrt(2 * gamma * C)
        assert all(abs(abs(s[i]) - thr) < 1e-12 for i in extra)


# ---------- stationarity residual ----------

def test_residual_norm_decomposition(small_instance):
    # F = [g_ell; g_s on T; s off T], with T the threshold set plus the diagonal
    barrier, result = small_instance["barrier"], small_instance["result"]
    basis, gamma = small_instance["basis"], small_instance["params"].gamma
    it = result.iterate
    res = stationarity_residual(it, barrier, gamma)
    g_ell, g_s = grad_h_tau(it, barrier)
    in_T = ~basis.off_diag
    in_T[index_set_T(it.s, g_s, gamma, barrier.problem.C)] = True
    np.testing.assert_array_equal(res.T, np.flatnonzero(in_T))
    F = np.concatenate([g_ell, g_s[in_T], it.s[~in_T]])
    assert_allclose(res.norm_normalized, np.linalg.norm(F) / np.sqrt(2 * basis.m), rtol=1e-15)


def test_residual_working_set_keeps_diagonal():
    # a positive-definite S has a positive diagonal, so the diagonal stays in
    # T even where the threshold rule alone would drop it
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(2)
    it = Iterate.from_matrices(0.8 * np.eye(2), 0.2 * np.eye(2), basis)
    g = grad_h_tau(it, barrier)
    assert len(index_set_T(it.s, g[1], 0.5, problem.C)) == 0
    res = stationarity_residual(it, barrier, 0.5, grad=g)
    assert_allclose(res.T, np.flatnonzero(~basis.off_diag))
    # F = [g_ell; g_s on the diagonal; the off-diagonal s, which is 0]
    F = np.concatenate([g[0], g[1][res.T], np.zeros(1)])
    assert_allclose(res.norm_normalized, np.linalg.norm(F) / np.sqrt(2 * basis.m), rtol=1e-15)


def test_residual_working_set_is_the_diagonal_and_index_set_T():
    # gamma = 0.5, C = 1: the keep floor sqrt(2 gamma C) is exactly 1, and
    # coordinate 1 sits on it (1.5 - 0.5 * 1), which the inclusive >= keeps;
    # coordinate 4 lies one ulp below it, and coordinate 2 enters from zero
    gamma, C = 0.5, 1.0
    problem = ProblemData(np.eye(3), C=C, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(3)
    # coordinates (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
    s = np.array([4.0, 1.5, 0.0, 4.0, 1.5, 4.0])
    g_s = np.array([8.0, 1.0, -2.5, 8.0, np.nextafter(1.0, 2.0), 8.0])
    it = Iterate(np.diag([1.0, 1.0, 1.0])[basis.rows, basis.cols], s, basis)
    assert it.is_strictly_feasible
    assert abs(s[4] - gamma * g_s[4]) == np.nextafter(1.0, 0.0)
    T_rule = index_set_T(s, g_s, gamma, C)
    assert list(T_rule) == [1, 2]
    res = stationarity_residual(it, barrier, gamma, grad=(np.zeros(basis.m), g_s))
    np.testing.assert_array_equal(res.T, np.union1d(np.flatnonzero(~basis.off_diag), T_rule))
    assert list(res.T) == [0, 1, 2, 3, 5]
    with pytest.raises(ConfigError, match="gamma must be finite and > 0"):
        stationarity_residual(it, barrier, 0.0, grad=(np.zeros(basis.m), g_s))


def test_residual_small_at_converged_solve(small_instance):
    result = small_instance["result"]
    assert result.residual.norm_normalized <= small_instance["params"].residual_tol


def test_converged_solve_meets_stopping_rule(small_instance):
    # the published stopping quantity at the default tolerance
    barrier = small_instance["barrier"]
    res = stationarity_residual(small_instance["result"].iterate, barrier, 0.1)
    assert res.norm_normalized <= 1e-4


def test_residual_perturbation_scales_linearly(small_instance):
    barrier, basis = small_instance["barrier"], small_instance["basis"]
    gamma = small_instance["params"].gamma
    root = small_instance["result"].iterate
    supported = np.flatnonzero(root.s)
    i = supported[0]
    norms = []
    for eps in (1e-5, 2e-5, 4e-5):
        s = root.s.copy()
        s[i] += eps
        res = stationarity_residual(Iterate(root.ell, s, basis), barrier, gamma)
        norms.append(res.norm_normalized)
    # linear scaling: doubling eps doubles the residual change
    ratio21 = norms[1] / norms[0]
    ratio42 = norms[2] / norms[1]
    assert 1.5 < ratio21 < 2.5
    assert 1.5 < ratio42 < 2.5


# ---------- stationarity certificate ----------

def test_clauses_all_pass_at_crafted_point():
    report = evaluate_stationarity_clauses(
        g_ell=np.zeros(3),
        g_s=np.array([0.0, 0.1, 0.0]),
        s=np.array([2.0, 0.0, -1.5]),
        gamma=0.5,
        C=1.0,
    )
    assert report.is_stationary
    assert report.violations == []


def test_clause_magnitude_violation():
    # supported coordinate halfway below the keep threshold
    report = evaluate_stationarity_clauses(
        g_ell=np.zeros(2),
        g_s=np.zeros(3),
        s=np.array([0.5, 0.0, 2.0]),
        gamma=0.5,
        C=1.0,
    )
    assert not report.is_stationary
    assert any("keep threshold" in v for v in report.violations)


def test_clause_zero_support_passes():
    # all-zero s passes whenever |g_s| stays below sqrt(2C/gamma)
    cap = np.sqrt(2 * 1.0 / 0.5)
    report = evaluate_stationarity_clauses(
        g_ell=np.zeros(2),
        g_s=np.array([0.9 * cap, -0.5 * cap]),
        s=np.zeros(2),
        gamma=0.5,
        C=1.0,
    )
    assert report.is_stationary


def test_clause_gradient_violations():
    report = evaluate_stationarity_clauses(
        g_ell=np.array([0.1]),
        g_s=np.array([0.2, 10.0]),
        s=np.array([3.0, 0.0]),
        gamma=0.5,
        C=1.0,
    )
    kinds = "\n".join(report.violations)
    assert "g_ell" in kinds
    assert "supported coordinate 0" in kinds
    assert "unsupported coordinate 1" in kinds


def test_theorem_roundtrip_root_passes_certificate():
    # a numerically tight root of the stationarity system passes the clause
    # check, and a verified point has a tiny residual
    rng = np.random.default_rng(17)
    p = 4
    problem = ProblemData(random_spd(rng, p, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(p)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    m = basis.m
    tight = 1e-8 / np.sqrt(2 * m)
    params = NewtonParams(gamma=0.1, residual_tol=tight, max_inner_iters=500)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    report = check_gamma_stationary(result.iterate, barrier, 0.1, tol=1e-6)
    assert report.is_stationary, report.violations
    # converse: the verified point satisfies the system to 1e-6
    res = stationarity_residual(result.iterate, barrier, 0.1)
    assert res.norm_normalized * np.sqrt(2 * m) <= 1e-6


def test_support_matches_index_set_at_root(small_instance):
    barrier = small_instance["barrier"]
    gamma = small_instance["params"].gamma
    root = small_instance["result"].iterate
    g = grad_h_tau(root, barrier)
    T = index_set_T(root.s, g[1], gamma, barrier.problem.C)
    assert set(T) == set(np.flatnonzero(root.s))
