import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from lsfa import (
    BarrierObjective,
    Direction,
    InfeasiblePointError,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    complement,
    descent_safeguard,
    eval_h_tau,
    fallback_direction,
    grad_h_tau,
    hessian_blocks,
    hessian_h_tau,
    index_set_T,
    line_search,
    newton_direction,
    solve_tau_min,
    stationarity_residual,
)
from lsfa.newton import _SchurComplement
from conftest import random_interior_point, random_spd


def _full_newton_system(it, barrier, T):
    """Oracle: the unreduced Newton system with the identity rows off T."""
    g_ell, g_s = grad_h_tau(it, barrier)
    H_ll, H_ls, H_ss = hessian_blocks(it, barrier)
    m = it.basis.m
    Tbar = complement(T, m)
    nT, nTb = len(T), len(Tbar)
    top = np.block([
        [H_ll, H_ls[:, T], H_ls[:, Tbar]],
        [H_ls[:, T].T, H_ss[np.ix_(T, T)], H_ss[np.ix_(T, Tbar)]],
    ])
    bottom = np.hstack([np.zeros((nTb, m + nT)), np.eye(nTb)])
    A = np.vstack([top, bottom])
    rhs = -np.concatenate([g_ell, g_s[T], it.s[Tbar]])
    return A, rhs, Tbar


def test_direction_zero_at_root(small_instance):
    barrier = small_instance["barrier"]
    gamma = small_instance["params"].gamma
    root = small_instance["result"].iterate
    g = grad_h_tau(root, barrier)
    T = index_set_T(root.s, g[1], gamma, barrier.problem.C)
    d = newton_direction(root, T, barrier)
    scale = max(1.0, float(np.linalg.norm(root.s)))
    # the right-hand side is the (tiny) residual, so the step is tiny too
    assert np.linalg.norm(np.concatenate([d.d_ell, d.d_s])) < 1e-4 * scale
    assert d.kind == "newton"


def test_direction_empty_working_set():
    # T = {} reduces to the ell block alone, with d_s = -s
    rng = np.random.default_rng(8)
    p = 3
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.4)
    it, basis = random_interior_point(rng, p)
    T = np.array([], dtype=int)
    d = newton_direction(it, T, barrier)
    g_ell, _ = grad_h_tau(it, barrier)
    H_ll, H_ls, _ = hessian_blocks(it, barrier)
    expected_d_ell = np.linalg.solve(H_ll, H_ls @ it.s - g_ell)
    assert_allclose(d.d_ell, expected_d_ell, atol=1e-10)
    assert_allclose(d.d_s, -it.s, atol=1e-15)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_back_substitution_equivalence(p):
    # the stacked reduced solution solves the full system to 1e-10
    rng = np.random.default_rng(p * 13)
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 2.0))
    barrier = BarrierObjective(problem, tau=rng.uniform(0.1, 0.6))
    for _ in range(3):
        it, basis = random_interior_point(rng, p)
        g = grad_h_tau(it, barrier)
        T = index_set_T(it.s, g[1], 0.3, problem.C)
        d = newton_direction(it, T, barrier)
        A, rhs, Tbar = _full_newton_system(it, barrier, T)
        stacked = np.concatenate([d.d_ell, d.d_s[T], d.d_s[Tbar]])
        assert np.linalg.norm(A @ stacked - rhs) < 1e-10
        assert_allclose(d.d_s[Tbar], -it.s[Tbar], atol=1e-15)


def _ill_conditioned_instance(p, seed):
    """A point whose L spans five decades, at tau = 1e-6 and mu = 100."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    L = (Q * np.geomspace(1e-5, 10.0, p)) @ Q.T
    S = np.diag(rng.uniform(0.5, 2.0, p))
    for _ in range(p):
        i, j = rng.choice(p, 2, replace=False)
        S[i, j] = S[j, i] = rng.uniform(-0.2, 0.2)
    S += (max(0.0, -np.linalg.eigvalsh(S).min()) + 0.05) * np.eye(p)
    basis = SymmetricBasis(p)
    it = Iterate.from_matrices(0.5 * (L + L.T), S, basis)
    problem = ProblemData(L + S + 0.1 * np.eye(p), C=0.5, mu=100.0)
    return it, basis, BarrierObjective(problem, tau=1e-6), rng


@pytest.mark.parametrize("p", [8, 9, 10])
def test_direction_matches_dense_oracle_when_ill_conditioned(p):
    it, basis, barrier, rng = _ill_conditioned_instance(p, seed=p)
    lam = scipy.linalg.eigh(it.L, it.sigma, eigvals_only=True)
    assert lam.min() < 1e-4 and lam.max() > 0.5
    assert np.linalg.cond(hessian_h_tau(it, barrier)) > 1e9
    m = basis.m
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), m // 3, replace=False))
    s_on_T = np.zeros(m)
    s_on_T[T] = it.s[T]
    cases = [(it, T), (Iterate(it.ell, s_on_T, basis), T), (it, np.array([], dtype=int))]
    for point, TT in cases:
        d = newton_direction(point, TT, barrier)
        A, rhs, Tbar = _full_newton_system(point, barrier, TT)
        x = np.concatenate([d.d_ell, d.d_s[TT], d.d_s[Tbar]])
        x_dense = np.linalg.solve(A, rhs)
        backward = np.linalg.norm(A @ x - rhs) / (np.linalg.norm(A, 2) * np.linalg.norm(x))
        assert backward < 1e-15
        assert np.linalg.norm(x - x_dense) < 1e-8 * np.linalg.norm(x_dense)
        assert_allclose(d.d_s[Tbar], -point.s[Tbar], atol=0)


@pytest.mark.parametrize("n_off", [10, 26])
def test_schur_complement_matches_dense_reduced_matrix(n_off):
    # p = 9, m = 45, T holds the whole diagonal: |T| = 19 (|T|^2 < m p) forms
    # E_TT from Phi_T, |T| = 35 from the pair Gram, in more than one 32-row pass
    rng = np.random.default_rng(91)
    p = 9
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=2.0)
    barrier = BarrierObjective(problem, tau=0.3)
    it, basis = random_interior_point(rng, p)
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), n_off, replace=False))
    assert (len(T) ** 2 < basis.m * p) == (n_off == 10)
    H_ll, H_ls, H_ss = hessian_blocks(it, barrier)
    dense = H_ss[np.ix_(T, T)] - H_ls[:, T].T @ np.linalg.solve(H_ll, H_ls[:, T])
    factor = np.tril(_SchurComplement(it, T, barrier).cho[0])
    assert_allclose(factor @ factor.T, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


def test_reduced_matrix_positive_definite():
    rng = np.random.default_rng(77)
    p = 4
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=1.5)
    barrier = BarrierObjective(problem, tau=0.25)
    for _ in range(5):
        it, basis = random_interior_point(rng, p)
        g = grad_h_tau(it, barrier)
        T = index_set_T(it.s, g[1], 0.3, problem.C)
        H_ll, H_ls, H_ss = hessian_blocks(it, barrier)
        K = np.block([[H_ll, H_ls[:, T]], [H_ls[:, T].T, H_ss[np.ix_(T, T)]]])
        assert np.linalg.eigvalsh(K).min() > 0


# ---------- descent safeguard ----------

def test_safeguard_trivial_zero_direction():
    d = Direction(d_ell=np.zeros(2), d_s=np.zeros(3), kind="newton")
    assert descent_safeguard(d, g_s=np.ones(3), s=np.array([1.0, 2.0, 0.0]),
                             T=np.array([0, 1]), delta=1e-4, gamma=0.5)


def test_safeguard_steepest_descent_passes():
    g_s = np.array([1.0, -2.0, 0.0])
    d = Direction(d_ell=np.zeros(1), d_s=-g_s, kind="newton")
    s = np.array([1.0, 1.0, 0.0])
    assert descent_safeguard(d, g_s, s, T=np.array([0, 1]), delta=1e-4, gamma=0.5)


def test_safeguard_rejects_ascent():
    g_s = np.array([1.0, -2.0, 0.0])
    d = Direction(d_ell=np.zeros(1), d_s=g_s.copy(), kind="newton")
    s = np.array([1.0, 1.0, 0.0])  # s off T is zero
    assert not descent_safeguard(d, g_s, s, T=np.array([0, 1]), delta=1e-4, gamma=0.5)


def test_fallback_always_passes_safeguard_when_off_block_empty():
    rng = np.random.default_rng(5)
    basis = SymmetricBasis(3)
    for _ in range(20):
        it = Iterate(basis.mat_to_vec(np.eye(3)), rng.uniform(0.5, 2.0, basis.m), basis)
        g_ell = rng.standard_normal(basis.m)
        g_s = rng.standard_normal(basis.m)
        T = np.arange(basis.m)  # everything supported: s off T is empty
        d = fallback_direction(it, g_ell, g_s, T)
        for delta in (1e-4, 0.5, 1.0):
            assert descent_safeguard(d, g_s, it.s, T, delta, gamma=0.5)


# ---------- fallback ----------

def test_fallback_componentwise_assignment():
    rng = np.random.default_rng(6)
    basis = SymmetricBasis(3)
    s = rng.standard_normal(basis.m)
    it = Iterate(basis.mat_to_vec(np.eye(3)), s, basis)
    g_ell = rng.standard_normal(basis.m)
    g_s = rng.standard_normal(basis.m)
    T = np.array([0, 2, 4])
    d = fallback_direction(it, g_ell, g_s, T)
    assert d.kind == "gradient-fallback"
    assert_allclose(d.d_ell, -g_ell)
    assert_allclose(d.d_s[T], -g_s[T])
    Tbar = complement(T, basis.m)
    assert_allclose(d.d_s[Tbar], -s[Tbar])


def test_fallback_zero_at_root():
    basis = SymmetricBasis(2)
    s = np.array([1.0, 0.0, 2.0])
    it = Iterate(basis.mat_to_vec(np.eye(2)), s, basis)
    T = np.array([0, 2])
    d = fallback_direction(it, np.zeros(3), np.zeros(3), T)
    assert_allclose(d.d_ell, np.zeros(3))
    assert_allclose(d.d_s, np.zeros(3))


# ---------- line search ----------

def test_line_search_zero_direction_accepts_immediately(small_instance):
    barrier = small_instance["barrier"]
    root = small_instance["result"].iterate
    basis = small_instance["basis"]
    T = np.flatnonzero(root.s)
    d = Direction(d_ell=np.zeros(basis.m), d_s=np.zeros(basis.m), kind="newton")
    ls = line_search(root, d, T, barrier, small_instance["params"])
    assert ls.success
    assert ls.alpha == 1.0
    assert ls.n_backtracks == 0


def test_line_search_rejects_cone_exit():
    # p=1 point near the boundary with a direction pointing out of the cone
    problem = ProblemData(np.array([[1.0]]), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.01)
    basis = SymmetricBasis(1)
    it = Iterate(np.array([0.05]), np.array([1.0]), basis)
    g_ell, g_s = grad_h_tau(it, barrier)
    assert g_ell[0] > 0  # gradient pushes L toward the boundary
    T = np.array([0])
    d = fallback_direction(it, g_ell, g_s, T)
    params = NewtonParams(gamma=0.5)
    ls = line_search(it, d, T, barrier, params)
    assert ls.success
    # the full step exits the cone (0.05 - g < 0), so backtracking happened
    assert ls.n_backtracks >= 1
    assert ls.alpha < 1.0
    assert ls.iterate.is_strictly_feasible


def test_line_search_full_steps_near_root(small_instance):
    # quadratic tail: the last accepted steps take alpha = 1
    rows = small_instance["result"].rows
    assert rows[-1].step_alpha == 1.0


def test_line_search_failure_reported():
    # an ascent direction on the smooth block can never satisfy the test
    rng = np.random.default_rng(30)
    problem = ProblemData(random_spd(rng, 2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.5)
    it, basis = random_interior_point(rng, 2)
    g_ell, g_s = grad_h_tau(it, barrier)
    T = np.arange(basis.m)
    d = Direction(d_ell=g_ell.copy(), d_s=g_s.copy(), kind="newton")  # ascent
    params = NewtonParams(gamma=0.5, max_backtracks=20)
    ls = line_search(it, d, T, barrier, params)
    assert not ls.success
    assert ls.iterate is None


def test_line_search_accepts_zeroing_paid_by_the_penalty():
    # At a root found with a small gamma, raise gamma until the smallest
    # off-diagonal coordinate falls under the keep floor.  Zeroing it raises
    # h_tau at every alpha beyond what the slope allows, but by less than the
    # C it saves, so the step is taken on the penalized merit.
    rng = np.random.default_rng(69)
    problem = ProblemData(random_spd(rng, 3), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(3)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    root = solve_tau_min(
        init, barrier, NewtonParams(gamma=0.1, residual_tol=1e-8, max_inner_iters=300)
    ).iterate
    off = np.flatnonzero(basis.off_diag & (root.s != 0))
    i = off[np.argmin(np.abs(root.s[off]))]
    gamma = 1.01 * root.s[i] ** 2 / (2 * problem.C)
    params = NewtonParams(gamma=gamma)
    g = grad_h_tau(root, barrier)
    T = stationarity_residual(root, barrier, gamma, grad=g).T
    assert i not in T
    d = newton_direction(root, T, barrier, grad=g)
    assert descent_safeguard(d, g[1], root.s, T, params.delta, gamma)
    ls = line_search(root, d, T, barrier, params, grad=g)
    assert ls.success and ls.iterate.s[i] == 0.0
    h0 = eval_h_tau(root, barrier)
    h1 = eval_h_tau(ls.iterate, barrier)
    penalty = problem.C * (np.count_nonzero(root.s) - np.count_nonzero(ls.iterate.s))
    assert h1 - penalty < h0
    # the published test, on h_tau alone, rejects every trial
    slope = g[0] @ d.d_ell + g[1] @ d.d_s
    for v in range(params.max_backtracks + 1):
        alpha = params.beta**v
        s_trial = np.zeros(basis.m)
        s_trial[T] = root.s[T] + alpha * d.d_s[T]
        trial = Iterate(root.ell + alpha * d.d_ell, s_trial, basis)
        assert eval_h_tau(trial, barrier) > h0 + params.sigma * alpha * slope


# ---------- inner solver ----------

def test_solver_converges_and_h_monotone(small_instance):
    result = small_instance["result"]
    hs = [row.objective_h_tau for row in result.rows]
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
    assert result.status == "converged"
    assert result.n_iters == len(result.rows)


def test_solver_zero_iterations_at_stationary_init(small_instance):
    barrier = small_instance["barrier"]
    params = small_instance["params"]
    again = solve_tau_min(small_instance["result"].iterate, barrier, params)
    assert again.status == "converged"
    assert again.n_iters <= 1


def test_solver_iteration_cap_status():
    rng = np.random.default_rng(31)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(4)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    params = NewtonParams(gamma=0.1, residual_tol=1e-10, max_inner_iters=2)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "iteration-cap"
    assert result.n_iters == 2


def test_solver_keeps_diagonal_in_working_set():
    # the threshold rule alone drops both diagonal coordinates of S here, and
    # every trial of the modified update is then outside the cone
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(2)
    init = Iterate.from_matrices(0.8 * np.eye(2), 0.2 * np.eye(2), basis)
    params = NewtonParams(gamma=0.5)
    g = grad_h_tau(init, barrier)
    dropped = index_set_T(init.s, g[1], params.gamma, problem.C)
    d = fallback_direction(init, g[0], g[1], dropped)
    assert not line_search(init, d, dropped, barrier, params, grad=g).success
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    assert result.n_iters >= 1
    assert result.iterate.is_strictly_feasible


def test_solver_rejects_infeasible_init():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(3)
    bad = Iterate.from_matrices(-np.eye(3), np.eye(3), basis)
    with pytest.raises(InfeasiblePointError):
        solve_tau_min(bad, barrier, NewtonParams(gamma=0.5))


def test_support_contained_in_working_set_each_step():
    # the modified update zeroes everything off T, so supp(s+) <= T always
    rng = np.random.default_rng(32)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.2)
    basis = SymmetricBasis(4)
    it = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    params = NewtonParams(gamma=0.1)
    for _ in range(6):
        g = grad_h_tau(it, barrier)
        res = stationarity_residual(it, barrier, params.gamma, grad=g)
        if res.norm_normalized <= params.residual_tol:
            break
        d = newton_direction(it, res.T, barrier, grad=g)
        if not descent_safeguard(d, g[1], it.s, res.T, params.delta, params.gamma):
            d = fallback_direction(it, g[0], g[1], res.T)
        ls = line_search(it, d, res.T, barrier, params, grad=g)
        assert ls.success
        assert set(np.flatnonzero(ls.iterate.s)) <= set(res.T)
        it = ls.iterate


def test_params_validation():
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.0)
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.5, sigma=0.5)
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.5, beta=1.0)
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.5, delta=-1.0)
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.5, max_inner_iters=0)


@pytest.mark.parametrize("name", ["gamma", "delta", "residual_tol"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        NewtonParams(**kwargs)
