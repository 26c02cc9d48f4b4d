import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import lsfa.newton
import lsfa.objective
from lsfa import (
    BarrierObjective,
    BaselineParams,
    ConfigError,
    Direction,
    InfeasiblePointError,
    NumericalBreakdownError,
    IpmParams,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    bcd_solve,
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
from lsfa.newton import (BACKTRACK_BETA, DECREASE_SIGMA, H_ROUNDING_RTOL, MAX_BACKTRACKS,
                         SAFEGUARD_DELTA, _SchurComplement, fixed_barrier_loop, settle_guard)
from lsfa.objective import hessian_vector_product
from conftest import fail_lapack, random_interior_point, random_spd


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


def _near_singular_S_instance(p, seed):
    """A point with L's eigenvalues in [1, 2] and S's geomspace(1e-11, 1, p), at
    tau = 1e-6 and mu = 100: S, not L, is nearly singular relative to Sigma.
    S's eigenvectors are a small rotation of the coordinate axes."""
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((p, p))
    Q = scipy.linalg.expm(0.003 * (K - K.T))
    S = (Q * np.geomspace(1e-11, 1.0, p)) @ Q.T
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    L = (Q * rng.uniform(1.0, 2.0, p)) @ Q.T
    basis = SymmetricBasis(p)
    it = Iterate.from_matrices(0.5 * (L + L.T), 0.5 * (S + S.T), basis)
    problem = ProblemData(L + S + 0.1 * np.eye(p), C=0.5, mu=100.0)
    return it, basis, BarrierObjective(problem, tau=1e-6), rng


@pytest.mark.parametrize("p,seed,instance", [
    pytest.param(8, 8, _ill_conditioned_instance, id="8"),
    pytest.param(9, 9, _ill_conditioned_instance, id="9"),
    pytest.param(10, 10, _ill_conditioned_instance, id="10"),
    # in the S-barrier's weight tau / (sig_k sig_l), sig = diag(W^T S W) gives
    # a backward error of 3e-18 here, and sig = 1 - lam, which cancels, 2e-13
    pytest.param(8, 7, _near_singular_S_instance, id="near-singular-S"),
])
def test_direction_matches_dense_oracle_when_ill_conditioned(p, seed, instance):
    it, basis, barrier, rng = instance(p, seed)
    lam = scipy.linalg.eigh(it.L, it.sigma, eigvals_only=True)
    if instance is _ill_conditioned_instance:
        assert lam.min() < 1e-4 and lam.max() > 0.5
    else:
        assert 1 - lam.max() < 1e-9
    assert np.linalg.cond(hessian_h_tau(it, barrier)) > 1e9
    m = basis.m
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), m // 3, replace=False))
    cases = [(it, T), (it, np.array([], dtype=int))]
    if instance is _ill_conditioned_instance:
        # S, diagonal plus small entries, stays positive definite on T alone
        s_on_T = np.zeros(m)
        s_on_T[T] = it.s[T]
        cases.append((Iterate(it.ell, s_on_T, basis), T))
    for point, TT in cases:
        d = newton_direction(point, TT, barrier)
        A, rhs, Tbar = _full_newton_system(point, barrier, TT)
        x = np.concatenate([d.d_ell, d.d_s[TT], d.d_s[Tbar]])
        x_dense = np.linalg.solve(A, rhs)
        backward = np.linalg.norm(A @ x - rhs) / (np.linalg.norm(A, 2) * np.linalg.norm(x))
        assert backward < 1e-15
        assert np.linalg.norm(x - x_dense) < 1e-8 * np.linalg.norm(x_dense)
        assert_allclose(d.d_s[Tbar], -point.s[Tbar], atol=0)


def _dense_schur_complement(it, barrier, T):
    """Oracle: the Schur complement on s_T of the reduced matrix, from the dense Hessian."""
    H_ll, H_ls, H_ss = hessian_blocks(it, barrier)
    return H_ss[np.ix_(T, T)] - H_ls[:, T].T @ np.linalg.solve(H_ll, H_ls[:, T])


@pytest.mark.parametrize("n_off", [10, 26])
def test_schur_complement_matches_dense_reduced_matrix(n_off):
    # p = 9, m = 45, T holds the whole diagonal: |T| = 19 and 35, the second
    # formed by sym_kron in two 32-row passes
    rng = np.random.default_rng(91)
    p = 9
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=2.0)
    barrier = BarrierObjective(problem, tau=0.3)
    it, basis = random_interior_point(rng, p)
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), n_off, replace=False))
    dense = _dense_schur_complement(it, barrier, T)
    schur = _SchurComplement(it, T, barrier)
    assert not schur.iterative
    assert_allclose(schur.K, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


def test_conjugate_gradient_side_applies_the_dense_schur_complement(monkeypatch):
    # never assembled, K acts through its O(p^3) product and its closed-form
    # diagonal; both are those of the dense Schur complement
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    rng = np.random.default_rng(92)
    p = 7
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=5.0)
    barrier = BarrierObjective(problem, tau=0.2)
    it, basis = random_interior_point(rng, p)
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), 12, replace=False))
    dense = _dense_schur_complement(it, barrier, T)
    schur = _SchurComplement(it, T, barrier)
    assert schur.iterative
    scale = np.abs(dense).max()
    assert_allclose(schur.diag, np.diag(dense), rtol=0, atol=1e-12 * scale)
    for _ in range(3):
        x = rng.standard_normal(len(T))
        assert_allclose(schur._product(x), dense @ x, rtol=0,
                        atol=1e-12 * scale * np.abs(x).sum())
    keep = rng.random(len(T)) < 0.6
    sub = schur.restrict(keep)
    np.testing.assert_array_equal(sub.T, T[keep])
    x = rng.standard_normal(int(keep.sum()))
    assert_allclose(sub._product(x), dense[np.ix_(keep, keep)] @ x, rtol=0,
                    atol=1e-12 * scale * np.abs(x).sum())


def test_conjugate_gradient_product_on_T_is_the_full_length_route_bit_for_bit(monkeypatch):
    # the product scatters x into a p x p array on T alone and gathers the
    # symmetric part of the result there: the same bits as embedding x in
    # all m coordinates, mapping it and the result through vec_to_mat and
    # mat_to_vec of the symmetric part, and reading T off it
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    rng = np.random.default_rng(93)
    p = 8
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=5.0)
    barrier = BarrierObjective(problem, tau=0.2)
    it, basis = random_interior_point(rng, p)
    T = np.union1d(np.flatnonzero(~basis.off_diag),
                   rng.choice(np.flatnonzero(basis.off_diag), 15, replace=False))
    schur = _SchurComplement(it, T, barrier)

    def full_length_route(solver, x):
        x_full = np.zeros(basis.m)
        x_full[solver.T] = x
        Y = solver.W.T @ basis.vec_to_mat(x_full) @ solver.W
        Y *= solver.delta
        Z = solver.W @ Y @ solver.W.T
        return basis.mat_to_vec(0.5 * (Z + Z.T))[solver.T]

    sub = schur.restrict(rng.random(len(T)) < 0.5)
    assert 0 < len(sub.T) < len(T)
    for solver in (schur, sub):
        for _ in range(3):
            x = rng.standard_normal(len(solver.T))
            np.testing.assert_array_equal(solver._product(x), full_length_route(solver, x))


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
    # the default keep_floor=0.0 drops nothing, so this is the plain direction
    # on T: the coordinates off T held at -s, then two passes of the Schur
    # solve on -g - H d, here written out, equal bit for bit
    for seed, p in [(40, 5), (41, 8)]:
        it, basis, barrier, T = _interior_point_with_working_set(seed, p)
        g_ell, g_s = grad_h_tau(it, barrier)
        schur = _SchurComplement(it, T, barrier)
        d_ell, d_s = np.zeros(basis.m), -it.s
        d_s[T] = 0.0
        for _ in range(2):
            h_ell, h_s = hessian_vector_product(it, barrier, d_ell, d_s)
            e_ell, e_T = schur.solve(-g_ell - h_ell, (-g_s - h_s)[T])
            d_ell += e_ell
            d_s[T] += e_T
        d = newton_direction(it, T, barrier)
        np.testing.assert_array_equal(d.d_ell, d_ell)
        np.testing.assert_array_equal(d.d_s, d_s)
        np.testing.assert_array_equal(d.T, T)
        # passed explicitly, that floor changes nothing either
        d0 = newton_direction(it, T, barrier, keep_floor=0.0)
        np.testing.assert_array_equal(d0.d_ell, d_ell)
        np.testing.assert_array_equal(d0.d_s, d_s)


@pytest.mark.parametrize("seed,p,n_off,drop_all", [
    # half the off-diagonal in T
    pytest.param(50, 4, None, False, id="50-4"),
    pytest.param(51, 6, None, False, id="51-6"),
    pytest.param(52, 8, None, False, id="52-8"),
    pytest.param(53, 9, None, False, id="53-9"),
    # a sparse working set, as on every sparse start
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


def test_conjugate_gradient_direction_solves_the_dense_reduced_system():
    # p = 24 with every coordinate in T: |T|^2 m = 300^3 is above the
    # assembly bound, so the one pass is a conjugate-gradient solve
    rng = np.random.default_rng(24)
    p = 24
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 2.0))
    barrier = BarrierObjective(problem, tau=rng.uniform(0.1, 0.6))
    it, basis = random_interior_point(rng, p)
    T = np.arange(basis.m)
    assert len(T) ** 2 * basis.m > lsfa.newton._ASSEMBLE_FLOPS
    d = newton_direction(it, T, barrier)
    A, rhs, _ = _full_newton_system(it, barrier, T)
    stacked = np.concatenate([d.d_ell, d.d_s])
    assert np.linalg.norm(A @ stacked - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_factored_and_conjugate_gradient_sides_agree(monkeypatch):
    # both preconditioners, the assembled K's Cholesky factor and K's
    # diagonal, solve every pass by conjugate gradients to the exact 1e-12
    it, basis, barrier, T = _interior_point_with_working_set(57, 8)
    plain = newton_direction(it, T, barrier)
    off_T = T[basis.off_diag[T]]
    floor = float(np.median(np.abs(it.s[off_T] + plain.d_s[off_T])))
    cg_rtols = []
    cg_solve = _SchurComplement._cg

    def cg_spy(self, b, rtol):
        cg_rtols.append(rtol)
        return cg_solve(self, b, rtol)

    monkeypatch.setattr(_SchurComplement, "_cg", cg_spy)
    directions = {}
    for bound in (np.inf, 0):
        monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", bound)
        directions[bound] = [newton_direction(it, T, barrier, keep_floor=k) for k in (0.0, floor)]
    assert len(T) - len(directions[np.inf][1].T) >= 2
    assert cg_rtols and set(cg_rtols) == {lsfa.newton._EXACT_RTOL}
    for factored, cg in zip(directions[np.inf], directions[0]):
        np.testing.assert_array_equal(factored.T, cg.T)
        assert 0 < factored.cg_iterations < cg.cg_iterations
        x = np.concatenate([factored.d_ell, factored.d_s])
        x_cg = np.concatenate([cg.d_ell, cg.d_s])
        assert np.linalg.norm(x_cg - x) <= 1e-10 * np.linalg.norm(x)


def test_inexact_conjugate_gradient_direction_meets_its_tolerance_and_descends(monkeypatch):
    # the p = 24 all-T point above, solved to the largest forcing term: the
    # Schur system is solved to 1e-3 relative, in fewer iterations than the
    # exact solve, and the direction passes the joint descent test
    rng = np.random.default_rng(24)
    p = 24
    problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 2.0))
    barrier = BarrierObjective(problem, tau=rng.uniform(0.1, 0.6))
    it, basis = random_interior_point(rng, p)
    T = np.arange(basis.m)
    solves = []  # (b, x, rtol) of every conjugate-gradient solve
    cg = _SchurComplement._cg

    def spy(self, b, rtol):
        x = cg(self, b, rtol)
        solves.append((b, x, rtol))
        return x

    monkeypatch.setattr(_SchurComplement, "_cg", spy)
    exact = newton_direction(it, T, barrier)
    d = newton_direction(it, T, barrier, rtol=1e-3)
    assert [rtol for *_, rtol in solves] == [1e-12, 1e-12, 1e-3]
    b, x, _ = solves[-1]
    K = _dense_schur_complement(it, barrier, T)
    assert np.linalg.norm(K @ x - b) <= 1e-3 * np.linalg.norm(b)
    assert 0 < d.cg_iterations < exact.cg_iterations
    g_ell, g_s = grad_h_tau(it, barrier)
    assert descent_safeguard(d, g_s, SAFEGUARD_DELTA, 0.1, g_ell=g_ell)


@pytest.mark.parametrize("bound", [0, lsfa.newton._ASSEMBLE_FLOPS], ids=["diagonal", "factor"])
def test_solver_solves_each_step_to_its_forcing_term(monkeypatch, bound):
    # every conjugate-gradient solve of a step runs to max(1e-12, min(1e-3,
    # ||F||), min(0.1, 0.5 residual_tol / ||F||)) of the point the step
    # starts from, and the trace row counts the iterations, one product
    # each, and the relative residual they were asked for; the stop rule
    # 1e-9 puts steps on both sides of the safeguard: one from 3e-5 solves
    # to it, and those from ~5e-9 to 0.1.  At the default bound every K
    # here (|T|^2 m <= 15^3) is assembled and its Cholesky factor
    # preconditions, so each solve takes at most two iterations
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", bound)
    rng = np.random.default_rng(11)
    p = 5
    sigma_check = random_spd(rng, p, shift=2.0)
    problem = ProblemData(sigma_check, C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    init = Iterate.from_matrices(0.5 * sigma_check, 0.5 * sigma_check, SymmetricBasis(p))
    params = NewtonParams(gamma=0.1, residual_tol=1e-9)
    steps = []  # per step: [rtol passed to newton_direction, cg rtols, products]
    direction, cg, product = newton_direction, _SchurComplement._cg, _SchurComplement._product

    def direction_spy(*args, rtol, **kwargs):
        steps.append([rtol, [], 0])
        return direction(*args, rtol=rtol, **kwargs)

    solves = []  # per CG solve: (preconditioned by the diagonal, iterations)

    def cg_spy(self, b, rtol):
        steps[-1][1].append(rtol)
        before = self.cg_iterations
        x = cg(self, b, rtol)
        solves.append((self.iterative, self.cg_iterations - before))
        return x

    def product_spy(self, x):
        steps[-1][2] += 1
        return product(self, x)

    monkeypatch.setattr(lsfa.newton, "newton_direction", direction_spy)
    monkeypatch.setattr(_SchurComplement, "_cg", cg_spy)
    monkeypatch.setattr(_SchurComplement, "_product", product_spy)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    assert len(steps) == result.n_iters
    residuals = [stationarity_residual(init, barrier, params.gamma).norm_normalized]
    residuals += [row.residual_normalized for row in result.rows[:-1]]
    forcing = [max(1e-12, min(1e-3, r), min(0.1, 0.5 * params.residual_tol / r)) for r in residuals]
    assert [rtol for rtol, *_ in steps] == forcing
    for (_, cg_rtols, _), rtol in zip(steps, forcing):
        assert cg_rtols and set(cg_rtols) == {rtol}
    assert forcing[0] == 1e-3 and 1e-12 < min(forcing) < 1e-3
    # the safeguard against oversolving fired on a step near the root
    assert any(rtol > lsfa.newton._FORCING_CAP for rtol in forcing)
    assert max(forcing) <= lsfa.newton._FORCING_MAX
    assert [row.cg_iterations for row in result.rows] == [n for *_, n in steps]
    assert [row.cg_rtol for row in result.rows] == forcing
    if bound:
        assert all(not iterative and 1 <= n <= 2 for iterative, n in solves)
    else:
        assert all(iterative for iterative, _ in solves)


def test_step_from_a_zero_residual_solves_to_the_largest_forcing_term(monkeypatch):
    # a point with F = 0 (stubbed) still takes its one step; the safeguard
    # term is then _FORCING_MAX, taken without dividing by ||F|| = 0
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    rng = np.random.default_rng(11)
    p = 5
    sigma_check = random_spd(rng, p, shift=2.0)
    barrier = BarrierObjective(ProblemData(sigma_check, C=0.5, mu=10.0), tau=0.1)
    init = Iterate.from_matrices(0.5 * sigma_check, 0.5 * sigma_check, SymmetricBasis(p))
    params = NewtonParams(gamma=0.1)
    residual = stationarity_residual(init, barrier, params.gamma)
    monkeypatch.setattr(lsfa.newton, "stationarity_residual",
                        lambda *args, **kwargs: replace(residual, norm_normalized=0.0))
    rtols = []
    cg = _SchurComplement._cg

    def cg_spy(self, b, rtol):
        rtols.append(rtol)
        return cg(self, b, rtol)

    monkeypatch.setattr(_SchurComplement, "_cg", cg_spy)
    with np.errstate(all="raise"):
        result = solve_tau_min(init, barrier, params)
    assert (result.status, result.n_iters) == ("converged", 1)
    assert rtols and set(rtols) == {lsfa.newton._FORCING_MAX}
    assert result.rows[0].cg_rtol == lsfa.newton._FORCING_MAX


def test_nonpositive_curvature_in_conjugate_gradients_is_a_breakdown(monkeypatch):
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    monkeypatch.setattr(_SchurComplement, "_product", lambda self, x: -x)
    rng = np.random.default_rng(12)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    with pytest.raises(NumericalBreakdownError, match="nonpositive curvature"):
        ipm_solve(problem, default_init(problem), IpmParams(gamma=0.1))


def test_conjugate_gradients_without_convergence_is_a_breakdown(monkeypatch):
    # a covariance of condition 1e13 leaves the diagonally preconditioned
    # Schur system on all 55 coordinates far from an exact solve after 2|T| iterations
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 10)))
    sigma = Q @ np.diag(np.geomspace(1e-13, 1.0, 10)) @ Q.T
    problem = ProblemData(0.5 * (sigma + sigma.T), C=0.5, mu=100.0)
    basis = SymmetricBasis(10)
    it = Iterate.from_matrices(*default_init(problem), basis)
    with pytest.raises(NumericalBreakdownError,
                       match=r"of size 55 stopped after 110 iterations .*: no convergence"):
        newton_direction(it, np.arange(basis.m), BarrierObjective(problem, tau=0.5), rtol=1e-12)


def test_schur_complement_reads_the_eigenbasis_off_sigmas_held_factor(monkeypatch):
    # after the gradient, which factored every block and inverted their
    # factors, the eigenbasis takes one symmetric eigensolve and no further
    # factorization or inversion
    it, basis, barrier, T = _interior_point_with_working_set(57, 6)
    grad_h_tau(it, barrier)
    calls = []

    def counted(name):
        routine = getattr(lsfa.objective, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return counting

    for name in ("_potrf", "_trtri", "_syevd"):
        monkeypatch.setattr(lsfa.objective, name, counted(name))
    _SchurComplement(it, T, barrier)
    assert calls == ["_syevd"]


@pytest.mark.parametrize("routine,compute", [
    ("syevd", lambda it, T, barrier: newton_direction(it, T, barrier)),
    ("trtri", lambda it, T, barrier: grad_h_tau(it, barrier)),
    ("syevr", lambda it, T, barrier: bcd_solve(it, barrier,
                                               BaselineParams(gamma=0.1, max_iters=1))),
], ids=["syevd", "trtri", "syevr"])
def test_failed_lapack_call_is_a_breakdown(monkeypatch, routine, compute):
    # the point's blocks are factored before the routine fails; their
    # inverses, eigenbasis and pencil are formed lazily, after it does
    it, basis, barrier, T = _interior_point_with_working_set(58, 5)
    fail_lapack(monkeypatch, routine)
    with pytest.raises(NumericalBreakdownError,
                       match=rf"LAPACK {routine} returned info=1 on .* \(5 x 5\)$"):
        compute(it, T, barrier)


def test_failed_factorization_of_the_schur_complement_is_a_breakdown(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("2-th leading minor of the array is not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
    it, basis, barrier, T = _interior_point_with_working_set(58, 5)
    with pytest.raises(NumericalBreakdownError,
                       match=rf"of size {len(T)}, is not positive definite: 2-th leading minor"):
        newton_direction(it, T, barrier)


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
    assert descent_safeguard(d, g_s=np.ones(3), delta=1e-4, gamma=0.5)


def test_safeguard_steepest_descent_passes():
    g_s = np.array([1.0, -2.0, 0.0])
    T = np.array([0, 1])
    d = Direction(d_ell=np.zeros(1), d_s=-g_s, kind="newton", T=T)
    assert descent_safeguard(d, g_s, delta=1e-4, gamma=0.5)


def test_safeguard_rejects_ascent():
    g_s = np.array([1.0, -2.0, 0.0])
    T = np.array([0, 1])
    d = Direction(d_ell=np.zeros(1), d_s=g_s.copy(), kind="newton", T=T)
    assert not descent_safeguard(d, g_s, delta=1e-4, gamma=0.5)  # d_s off T, -s there, is zero


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
            assert descent_safeguard(d, g_s, delta, gamma=0.5)


def test_joint_safeguard_is_the_written_out_inequality():
    rng = np.random.default_rng(60)
    m, delta, gamma = 10, 1e-2, 0.3
    outcomes = set()
    for _ in range(200):
        g_ell, g_s, d_ell, d_s = (rng.standard_normal(m) * rng.uniform(0.1, 3.0) for _ in range(4))
        s = rng.standard_normal(m) * rng.uniform(0.0, 2.0)
        T = np.flatnonzero(rng.random(m) < 0.7)
        Tbar = complement(T, m)
        d_s[Tbar] = -s[Tbar]  # a direction holds -s off its set
        d = Direction(d_ell=d_ell, d_s=d_s, kind="newton", T=T)
        joint = (g_ell @ d_ell + g_s[T] @ d_s[T]
                 <= -delta * (d_ell @ d_ell + d_s @ d_s) + s[Tbar] @ s[Tbar] / (4 * gamma))
        assert descent_safeguard(d, g_s, delta, gamma, g_ell=g_ell) == joint
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
        assert descent_safeguard(d, g[1], 1e-4, 0.1, g_ell=g[0])
        if not descent_safeguard(d, g[1], 1e-4, 0.1):
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
    ls = line_search(root, d, barrier)
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
    ls = line_search(it, d, barrier)
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
    ls = line_search(it, d, barrier)
    assert not ls.success
    assert ls.iterate is None
    # the first trial and every halving after it were rejected
    assert ls.n_backtracks == MAX_BACKTRACKS + 1


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
    g = grad_h_tau(root, barrier)
    T = stationarity_residual(root, barrier, gamma, grad=g).T
    assert i not in T
    d = newton_direction(root, T, barrier, grad=g)
    assert descent_safeguard(d, g[1], SAFEGUARD_DELTA, gamma)
    ls = line_search(root, d, barrier, grad=g)
    assert ls.success and ls.iterate.s[i] == 0.0
    h0 = eval_h_tau(root, barrier)
    h1 = eval_h_tau(ls.iterate, barrier)
    penalty = problem.C * (np.count_nonzero(root.s) - np.count_nonzero(ls.iterate.s))
    assert h1 - penalty < h0
    # the published test, on h_tau alone, rejects every trial
    slope = g[0] @ d.d_ell + g[1] @ d.d_s
    for v in range(MAX_BACKTRACKS + 1):
        alpha = BACKTRACK_BETA**v
        s_trial = np.zeros(basis.m)
        s_trial[T] = root.s[T] + alpha * d.d_s[T]
        trial = Iterate(root.ell + alpha * d.d_ell, s_trial, basis)
        assert eval_h_tau(trial, barrier) > h0 + DECREASE_SIGMA * alpha * slope


def _search_with_trial_rise(monkeypatch, slope_share, rise_share):
    # a direction along -/+ g, scaled so that its slope is slope_share of
    # h_tau's rounding, and every trial point reading rise_share of that
    # rounding above the start
    rng = np.random.default_rng(31)
    problem = ProblemData(random_spd(rng, 3), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.5)
    it, basis = random_interior_point(rng, 3)
    g = grad_h_tau(it, barrier)
    h0 = eval_h_tau(it, barrier)
    rounding = H_ROUNDING_RTOL * abs(h0)
    scale = slope_share * rounding / float(g[0] @ g[0] + g[1] @ g[1])
    d = Direction(d_ell=-scale * g[0], d_s=-scale * g[1], kind="newton", T=np.arange(basis.m))
    monkeypatch.setattr(lsfa.newton, "eval_h_tau",
                        lambda x, b: h0 if x is it else h0 + rise_share * rounding)
    return line_search(it, d, barrier, grad=g)


def test_line_search_accepts_a_rise_within_rounding_below_the_rounding_slope(monkeypatch):
    ls = _search_with_trial_rise(monkeypatch, slope_share=0.1, rise_share=0.5)
    assert ls.success and ls.alpha == 1.0


@pytest.mark.parametrize("slope_share, rise_share", [
    (0.1, 2.0),    # a rise beyond the rounding
    (10.0, 0.5),   # a slope the test resolves: a rise fails at every alpha
    # a slope far above the rounding, though its required decrease
    # DECREASE_SIGMA |slope| is below it: the rounding does not hide it
    (100.0, 0.5),
    (-0.1, 0.5),   # an ascent direction gets no allowance
])
def test_line_search_rejects_a_rise_the_rounding_does_not_cover(monkeypatch, slope_share,
                                                                  rise_share):
    ls = _search_with_trial_rise(monkeypatch, slope_share, rise_share)
    assert not ls.success and ls.n_backtracks == MAX_BACKTRACKS + 1


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
    searches = []  # (|set searched|, success, backtracks)

    def spy(it, direction, *args, **kwargs):
        result = line_search(it, direction, *args, **kwargs)
        searches.append((len(direction.T), result.success, result.n_backtracks))
        return result

    monkeypatch.setattr(lsfa.newton, "line_search", spy)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    assert check_gamma_stationary(result.iterate, barrier, params.gamma, tol=1e-6).is_stationary
    retried = [k for k in range(1, len(searches)) if not searches[k - 1][1]]
    assert retried
    for k in retried:
        assert searches[k - 1][0] < searches[k][0] and searches[k][1]
    assert len(searches) == result.n_iters + len(retried)
    # the trace counts every trial rejected before the accepted one, in both passes
    rejected = [n + (MAX_BACKTRACKS + 1 if k in retried else 0)
                for k, (_, success, n) in enumerate(searches) if success]
    assert [row.n_backtracks for row in result.rows] == rejected
    assert any(n > MAX_BACKTRACKS for n in rejected)


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
    assert not line_search(init, d, barrier, grad=g).success
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
            return "line-search-failure"
        taken.append(Iterate(1.01 * it.ell, it.s, it.basis))
        return taken[-1], dict(step_alpha=0.5, direction_kind="stub", working_set_size=4, n_backtracks=1)

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


# the trace-row fields of the stub steps below
_STUB_FIELDS = dict(step_alpha=1.0, direction_kind="stub", working_set_size=1, n_backtracks=0)


def _merit(it, barrier):
    return eval_h_tau(it, barrier) + barrier.problem.C * np.count_nonzero(it.s)


@pytest.mark.parametrize("period", [3, 4])
def test_fixed_barrier_loop_ends_a_cycle_on_its_lowest_merit_iterate(period):
    # a stub step that cycles among `period` feasible iterates, the second of
    # which has the lowest penalized merit: with settle_guard the repeat is
    # first seen at step period + 1, on the first iterate, and the solve
    # stops one step later, on the second.  A guard that compared only with
    # the last three iterates ran the period-4 orbit to the step cap.
    rng = np.random.default_rng(33)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, SymmetricBasis(4))
    thinned = init.s.copy()
    thinned[np.flatnonzero(init.basis.off_diag)[0]] = 0.0
    members = sorted([Iterate(1.01 * init.ell, init.s, init.basis), Iterate(init.ell, thinned, init.basis),
                      Iterate(0.99 * init.ell, init.s, init.basis),
                      Iterate(1.02 * init.ell, init.s, init.basis)][:period],
                     key=lambda it: _merit(it, barrier))
    assert len({_merit(it, barrier) for it in members}) == period

    def run(guarded, max_iters=200):
        orbit = itertools.cycle([members[1], members[0], *members[2:]])

        def step(it, g, res):
            return next(orbit), _STUB_FIELDS

        return fixed_barrier_loop(init, barrier, settle_guard(step, barrier) if guarded else step,
                                  gamma=0.1, residual_tol=1e-12, max_iters=max_iters)

    result = run(guarded=True)
    assert (result.status, result.n_iters) == ("stalled", period + 2)
    assert result.iterate is members[0]
    assert result.rows[-1].objective_h_tau == eval_h_tau(members[0], barrier)
    # the guard looks before the next step, so a settle at the last allowed
    # step ends on the step cap
    capped = run(guarded=True, max_iters=period + 2)
    assert (capped.status, capped.n_iters) == ("iteration-cap", period + 2)
    # the loop bcd_solve runs does not look for cycles
    plain = run(guarded=False)
    assert (plain.status, plain.n_iters) == ("iteration-cap", 200)


def test_fixed_barrier_loop_never_stops_steps_that_lower_h_or_the_residual(small_instance):
    # on one support: gradient steps in ell that keep lowering h_tau, and
    # steps toward a root that keep lowering the residual while h_tau is flat
    # to below the settle tolerance
    barrier = small_instance["barrier"]
    root = small_instance["result"].iterate
    basis = root.basis
    v = np.random.default_rng(0).standard_normal(basis.m)
    v /= np.linalg.norm(v)
    offsets = iter(1e-5 * 0.5 ** np.arange(1, 9))
    steps = [(small_instance["init"], lambda it, g, res: Iterate(it.ell - 1e-3 * g[0], it.s, basis)),
             (root, lambda it, g, res: Iterate(root.ell + next(offsets) * v, root.s, basis))]
    descent, toward_root = [
        fixed_barrier_loop(init, barrier,
                           settle_guard(lambda it, g, res: (move(it, g, res), _STUB_FIELDS), barrier),
                           gamma=0.1, residual_tol=1e-12, max_iters=8)
        for init, move in steps]
    for result in (descent, toward_root):
        assert (result.status, result.n_iters) == ("iteration-cap", 8)
        assert len({row.support_size for row in result.rows}) == 1
    hs = [row.objective_h_tau for row in descent.rows]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    hs = [row.objective_h_tau for row in toward_root.rows]
    assert max(hs) - min(hs) < lsfa.newton.SETTLE_RTOL * abs(hs[0])
    residuals = [row.residual_normalized for row in toward_root.rows]
    assert all(b < 0.6 * a for a, b in zip(residuals, residuals[1:]))


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
        if not descent_safeguard(d, g[1], SAFEGUARD_DELTA, params.gamma):
            d = fallback_direction(it, g[0], g[1], res.T)
        ls = line_search(it, d, barrier, grad=g)
        assert ls.success
        assert set(np.flatnonzero(ls.iterate.s)) <= set(res.T)
        it = ls.iterate


def test_params_validation():
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.0)
    with pytest.raises(ValueError):
        NewtonParams(gamma=0.5, max_inner_iters=0)
    # a step cap that is not an integer, or is a bool, is rejected when the class is built
    for bad in (2.5, 3.0, True):
        with pytest.raises(ConfigError, match="max_inner_iters must be an integer"):
            NewtonParams(gamma=0.5, max_inner_iters=bad)
        with pytest.raises(ConfigError, match="max_inner_iters must be an integer"):
            IpmParams(gamma=0.5, max_inner_iters=bad)


@pytest.mark.parametrize("name", ["gamma", "residual_tol"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        NewtonParams(**kwargs)
