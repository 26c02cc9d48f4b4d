import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import lsfa.newton
from lsfa import (
    BarrierObjective,
    Direction,
    InfeasiblePointError,
    IpmParams,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    check_gamma_stationary,
    complement,
    default_init,
    descent_safeguard,
    eval_h_tau,
    fallback_direction,
    generate_ground_truth,
    grad_h_tau,
    hessian_blocks,
    hessian_h_tau,
    index_set_T,
    ipm_solve,
    line_search,
    newton_direction,
    sample_covariance,
    sample_observations,
    solve_tau_min,
    stationarity_residual,
)
from lsfa.newton import _SchurComplement, fixed_barrier_loop
from lsfa.objective import hessian_vector_product
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
def test_schur_complement_matches_dense_reduced_matrix(n_off, monkeypatch):
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
    packed = _SchurComplement(it, T, barrier).cho[0]
    factor = np.tril(packed)
    assert_allclose(factor @ factor.T, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
    # the Cholesky reads only the upper triangle of the assembled blocks: the
    # factor equals, bit for bit, that of the blocks assembled in full
    for name in ("sym_kron", "pair_gram_block"):
        whole = getattr(SymmetricBasis, name)
        monkeypatch.setattr(SymmetricBasis, name,
                            lambda self, X, rows=None, cols=None, upper=False, _whole=whole:
                            _whole(self, X, rows, cols))
    packed_full = _SchurComplement(it, T, barrier).cho[0]
    np.testing.assert_array_equal(factor, np.tril(packed_full))
    assert not np.array_equal(np.triu(packed, 1), np.triu(packed_full, 1))


def _interior_point_with_working_set(seed, p, n_off=None):
    """A random interior point, a barrier, and T = the diagonal plus n_off off-diagonal
    coordinates (by default half of them)."""
    rng = np.random.default_rng(seed)
    problem = ProblemData(random_spd(rng, p), C=0.5, mu=rng.uniform(1.0, 20.0))
    barrier = BarrierObjective(problem, tau=rng.uniform(0.01, 0.5))
    it, basis = random_interior_point(rng, p)
    off = np.flatnonzero(basis.off_diag)
    n_off = len(off) // 2 if n_off is None else n_off
    T = np.union1d(np.flatnonzero(~basis.off_diag), rng.choice(off, n_off, replace=False))
    return it, basis, barrier, T


def test_direction_without_keep_floor_is_the_refined_schur_solve():
    # keep_floor=None is the plain direction on T: one Schur solve and one
    # refinement step, here written out, equal bit for bit
    for seed, p in [(40, 5), (41, 8)]:
        it, basis, barrier, T = _interior_point_with_working_set(seed, p)
        g_ell, g_s = grad_h_tau(it, barrier)
        Tbar = complement(T, basis.m)
        s_off = np.zeros(basis.m)
        s_off[Tbar] = it.s[Tbar]
        h_ell, h_s = hessian_vector_product(it, barrier, np.zeros(basis.m), s_off)
        r_ell, r_T = -g_ell + h_ell, -g_s[T] + h_s[T]
        schur = _SchurComplement(it, T, barrier)
        d_ell, d_T = schur.solve(r_ell, r_T)
        d_s = np.zeros(basis.m)
        d_s[T] = d_T
        h_ell, h_s = hessian_vector_product(it, barrier, d_ell, d_s)
        e_ell, e_T = schur.solve(r_ell - h_ell, r_T - h_s[T])
        d_ell += e_ell
        d_s[T] += e_T
        d_s[Tbar] = -it.s[Tbar]
        d = newton_direction(it, T, barrier)
        np.testing.assert_array_equal(d.d_ell, d_ell)
        np.testing.assert_array_equal(d.d_s, d_s)
        np.testing.assert_array_equal(d.T, T)
        # a floor nothing falls below changes nothing either
        d0 = newton_direction(it, T, barrier, keep_floor=0.0)
        np.testing.assert_array_equal(d0.d_ell, d_ell)
        np.testing.assert_array_equal(d0.d_s, d_s)


@pytest.mark.parametrize("seed,p,n_off,drop_all", [
    # half the off-diagonal in T: |T|^2 >= m p, E_TT from the pair Gram
    pytest.param(50, 4, None, False, id="50-4"),
    pytest.param(51, 6, None, False, id="51-6"),
    pytest.param(52, 8, None, False, id="52-8"),
    pytest.param(53, 9, None, False, id="53-9"),
    # a sparse working set: |T|^2 < m p, E_TT from Phi_T as on every sparse start
    pytest.param(54, 9, 4, False, id="54-9-sparse"),
    pytest.param(55, 10, 6, False, id="55-10-sparse"),
    # a floor above every prediction: T \ D is the diagonal alone
    pytest.param(56, 6, None, True, id="56-6-all-drop"),
])
def test_predicted_drop_matches_a_fresh_solve_on_the_smaller_set(seed, p, n_off, drop_all):
    it, basis, barrier, T = _interior_point_with_working_set(seed, p, n_off)
    plain = newton_direction(it, T, barrier)
    off_T = T[basis.off_diag[T]]
    predicted = np.abs(it.s[off_T] + plain.d_s[off_T])
    # about half the off-diagonal of T drops, or all of it
    floor = 2.0 * float(predicted.max()) if drop_all else float(np.median(predicted))
    d = newton_direction(it, T, barrier, keep_floor=floor)
    D = off_T[predicted < floor]
    assert len(D) >= 1
    np.testing.assert_array_equal(d.T, np.setdiff1d(T, D))
    assert_allclose(d.d_s[D], -it.s[D], rtol=0, atol=0)
    fresh = newton_direction(it, d.T, barrier)
    x = np.concatenate([d.d_ell, d.d_s])
    x_fresh = np.concatenate([fresh.d_ell, fresh.d_s])
    assert np.linalg.norm(x - x_fresh) <= 1e-12 * np.linalg.norm(x_fresh)
    # and it solves the full Newton system on that set
    A, rhs, Tbar = _full_newton_system(it, barrier, d.T)
    stacked = np.concatenate([d.d_ell, d.d_s[d.T], d.d_s[Tbar]])
    assert np.linalg.norm(A @ stacked - rhs) < 1e-10


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
    T = np.array([0, 1])
    d = Direction(d_ell=np.zeros(2), d_s=np.zeros(3), kind="newton", T=T)
    assert descent_safeguard(d, g_s=np.ones(3), s=np.array([1.0, 2.0, 0.0]),
                             T=T, delta=1e-4, gamma=0.5)


def test_safeguard_steepest_descent_passes():
    g_s = np.array([1.0, -2.0, 0.0])
    T = np.array([0, 1])
    d = Direction(d_ell=np.zeros(1), d_s=-g_s, kind="newton", T=T)
    s = np.array([1.0, 1.0, 0.0])
    assert descent_safeguard(d, g_s, s, T=T, delta=1e-4, gamma=0.5)


def test_safeguard_rejects_ascent():
    g_s = np.array([1.0, -2.0, 0.0])
    T = np.array([0, 1])
    d = Direction(d_ell=np.zeros(1), d_s=g_s.copy(), kind="newton", T=T)
    s = np.array([1.0, 1.0, 0.0])  # s off T is zero
    assert not descent_safeguard(d, g_s, s, T=T, delta=1e-4, gamma=0.5)


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


def test_joint_safeguard_is_the_written_out_inequality():
    rng = np.random.default_rng(60)
    m, delta, gamma = 10, 1e-2, 0.3
    outcomes = set()
    for _ in range(200):
        g_ell, g_s, d_ell, d_s = (rng.standard_normal(m) * rng.uniform(0.1, 3.0) for _ in range(4))
        s = rng.standard_normal(m) * rng.uniform(0.0, 2.0)
        T = np.flatnonzero(rng.random(m) < 0.7)
        Tbar = complement(T, m)
        d = Direction(d_ell=d_ell, d_s=d_s, kind="newton", T=T)
        joint = (g_ell @ d_ell + g_s[T] @ d_s[T]
                 <= -delta * (d_ell @ d_ell + d_s @ d_s) + s[Tbar] @ s[Tbar] / (4 * gamma))
        assert descent_safeguard(d, g_s, s, T, delta, gamma, g_ell=g_ell) == joint
        outcomes.add(bool(joint))
    assert outcomes == {True, False}


def test_joint_safeguard_accepts_a_newton_direction_the_s_block_test_rejects():
    # with s off T zero, the joint slope of a Newton direction is -r^T K^-1 r
    for seed in range(70, 90):
        it, basis, barrier, T = _interior_point_with_working_set(seed, 5)
        s_on_T = np.zeros(basis.m)
        s_on_T[T] = it.s[T]
        it = Iterate(it.ell, s_on_T, basis)
        g = grad_h_tau(it, barrier)
        d = newton_direction(it, T, barrier, grad=g)
        assert descent_safeguard(d, g[1], it.s, T, 1e-4, 0.1, g_ell=g[0])
        if not descent_safeguard(d, g[1], it.s, T, 1e-4, 0.1):
            return
    pytest.fail("no seed where the s-block test rejects a Newton direction")


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
    d = Direction(d_ell=np.zeros(basis.m), d_s=np.zeros(basis.m), kind="newton", T=T)
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
    d = Direction(d_ell=g_ell.copy(), d_s=g_s.copy(), kind="newton", T=T)  # ascent
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


@pytest.mark.parametrize("seed", [2, 3, 7])
def test_dense_start_takes_only_newton_steps_with_monotone_h(seed):
    # with the s-block test alone, 43-60 of 106-136 steps were gradient
    # fallbacks here, and h_tau rose inside solve 0 on seeds 2 and 7
    truth = generate_ground_truth(10, 2, 0.2, 1.0, seed)
    problem = ProblemData(sample_covariance(sample_observations(truth, 300, seed=seed + 1)),
                          C=0.5, mu=100.0)
    solution = ipm_solve(problem, default_init(problem), IpmParams(gamma=0.1))
    assert solution.status == "converged"
    assert {row.direction_kind for row in solution.traces} == {"newton"}
    assert len(solution.traces) <= 60
    for k in range(solution.n_outer):
        hs = [row.objective_h_tau for row in solution.traces if row.outer_iter == k]
        assert all(b <= a + 1e-9 for a, b in zip(hs, hs[1:])), k
    # the support after a step lies inside the set the step updated
    assert all(row.support_size <= row.working_set_size for row in solution.traces)


def test_solver_lets_predicted_drops_shrink_when_zeroing_them_fails(monkeypatch):
    # demo 02's solve: at its fourth step the Newton direction predicts three
    # drops, and no step size pays for zeroing them at once; the same
    # direction, with them moving with alpha, is accepted
    truth = generate_ground_truth(p=10, r=2, density=0.1, snr=1.0, seed=0)
    problem = ProblemData(sample_covariance(sample_observations(truth, 2000, seed=1)),
                          C=0.5, mu=20.0)
    basis = SymmetricBasis(10)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    barrier = BarrierObjective(problem, tau=0.05)
    params = NewtonParams(gamma=0.1, residual_tol=1e-8)
    searches = []  # (|set the direction was solved on|, |set searched|, success, backtracks)

    def spy(it, direction, T, *args, **kwargs):
        result = line_search(it, direction, T, *args, **kwargs)
        searches.append((len(direction.T), len(T), result.success, result.n_backtracks))
        return result

    monkeypatch.setattr(lsfa.newton, "line_search", spy)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    assert check_gamma_stationary(result.iterate, barrier, params.gamma, tol=1e-6).is_stationary
    retried = [k for k in range(1, len(searches)) if not searches[k - 1][2]]
    assert retried
    for k in retried:
        solved_on, first_set, _, _ = searches[k - 1]
        assert first_set == solved_on < searches[k][1] and searches[k][2]
    assert len(searches) == result.n_iters + len(retried)
    # the trace counts every trial rejected before the accepted one, in both passes
    rejected = [n + (params.max_backtracks + 1 if k in retried else 0)
                for k, (_, _, success, n) in enumerate(searches) if success]
    assert [row.n_backtracks for row in result.rows] == rejected
    assert any(n > params.max_backtracks for n in rejected)


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


def test_fixed_barrier_loop_stops_when_the_step_fails():
    # a stub step that scales L up (staying feasible) k times, then fails
    rng = np.random.default_rng(33)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, SymmetricBasis(4))
    k, gamma = 3, 0.1
    taken = []

    def step(it, g, res):
        assert_allclose(np.concatenate(g), np.concatenate(grad_h_tau(it, barrier)))
        if len(taken) == k:
            return None
        taken.append(Iterate(1.01 * it.ell, it.s, it.basis))
        return taken[-1], 0.5, "stub", 4, 1

    result = fixed_barrier_loop(init, barrier, step, gamma=gamma, residual_tol=1e-12,
                                max_iters=10, outer_index=7)
    assert result.status == "line-search-failure"
    assert result.n_iters == k
    assert [row.inner_iter for row in result.rows] == list(range(1, k + 1))
    assert {row.outer_iter for row in result.rows} == {7}
    assert {(row.step_alpha, row.direction_kind, row.working_set_size, row.n_backtracks)
            for row in result.rows} == {(0.5, "stub", 4, 1)}
    assert result.iterate is taken[-1]
    last = stationarity_residual(taken[-1], barrier, gamma)
    assert result.residual.norm_normalized == last.norm_normalized
    assert result.rows[-1].residual_normalized == last.norm_normalized
    assert len({row.residual_normalized for row in result.rows}) == k


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
