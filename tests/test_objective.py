import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import lsfa.objective
from lsfa.objective import _Block, eval_f_at
from lsfa import (
    BarrierObjective,
    ConfigError,
    DataError,
    InfeasiblePointError,
    IpmParams,
    Iterate,
    ProblemData,
    SymmetricBasis,
    default_init,
    eval_f,
    eval_h_tau,
    grad_h_tau,
    hessian_blocks,
    hessian_h_tau,
    hessian_vector_product,
    ipm_solve,
    sample_covariance,
)
from conftest import random_interior_point, random_spd


# ---------- sample covariance ----------

def test_sample_covariance_single_sample():
    y = np.array([1.0, 2.0, -1.0])
    assert_allclose(sample_covariance([y]), np.outer(y, y))


def test_sample_covariance_identical_samples():
    y = np.array([0.5, -2.0])
    assert_allclose(sample_covariance([y] * 7), np.outer(y, y), atol=1e-15)


def test_sample_covariance_two_unit_vectors():
    samples = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert_allclose(sample_covariance(samples), 0.5 * np.eye(2))


def test_sample_covariance_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        sample_covariance(np.zeros((0, 3)))


def test_sample_covariance_rejects_a_one_dimensional_array():
    with pytest.raises(DataError, match="N x p array, got ndim=1"):
        sample_covariance(np.ones(3))


def test_sample_covariance_ragged_rejected():
    with pytest.raises(ValueError):
        sample_covariance([[1.0, 2.0], [3.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_covariance_rejects_non_finite(bad):
    samples = np.ones((4, 3))
    samples[2, 1] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        sample_covariance(samples)


# ---------- problem data ----------

def test_problem_data_requires_pd():
    with pytest.raises(DataError):
        ProblemData(np.zeros((3, 3)), C=1.0, mu=1.0)


def test_problem_data_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        ProblemData(np.array([[1.0, 0.5], [0.0, 1.0]]), C=1.0, mu=1.0)


def test_problem_data_keeps_the_symmetric_part_of_a_nearly_symmetric_covariance():
    # potrf reads sigma_check's lower triangle for its inverse and
    # default_init's coordinates its upper one, so an accepted asymmetry
    # must not reach either
    sigma = random_spd(np.random.default_rng(4), 6)
    sigma[1, 4] *= 1 + 1e-14
    symmetric = 0.5 * (sigma + sigma.T)
    assert not np.array_equal(sigma, sigma.T)
    problem = ProblemData(sigma, C=0.5, mu=10.0)
    reference = ProblemData(symmetric, C=0.5, mu=10.0)
    assert np.array_equal(problem.sigma_check, problem.sigma_check.T)
    params = IpmParams(gamma=0.1)
    got = ipm_solve(problem, default_init(problem), params)
    want = ipm_solve(reference, default_init(reference), params)
    assert got.status == want.status == "converged"
    assert np.array_equal(got.L_star, want.L_star)
    assert np.array_equal(got.S_star, want.S_star)
    assert got.n_inner_total == want.n_inner_total


def test_problem_data_rejects_bad_weights():
    with pytest.raises(ValueError):
        ProblemData(np.eye(2), C=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ProblemData(np.eye(2), C=1.0, mu=-0.5)


@pytest.mark.parametrize("weights", [
    dict(C=np.inf, mu=1.0), dict(C=np.nan, mu=1.0), dict(C=1.0, mu=np.inf), dict(C=1.0, mu=np.nan),
])
def test_problem_data_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite"):
        ProblemData(np.eye(2), **weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_data_rejects_non_finite_covariance(bad):
    sigma = np.eye(3)
    sigma[0, 2] = sigma[2, 0] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        ProblemData(sigma, C=1.0, mu=1.0)


# ---------- smooth objective ----------

def test_eval_f_identity_case():
    # Sigma_check = I, L = S = I/2: tr(L) = 1, tr(I) = 2, log det I = 0
    for mu in (0.5, 1.0, 3.0):
        problem = ProblemData(np.eye(2), C=1.0, mu=mu)
        assert_allclose(eval_f(0.5 * np.eye(2), 0.5 * np.eye(2), problem), 1.0 + 2.0 * mu)


def test_eval_f_half_sample_covariance():
    rng = np.random.default_rng(5)
    sigma = random_spd(rng, 4)
    mu = 1.7
    problem = ProblemData(sigma, C=1.0, mu=mu)
    expected = 0.5 * np.trace(sigma) + mu * (4 - np.log(np.linalg.det(sigma)))
    assert_allclose(eval_f(0.5 * sigma, 0.5 * sigma, problem), expected, rtol=1e-12)


def test_eval_f_singular_sum_is_inf():
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    L = np.diag([1.0, 0.0])
    S = np.diag([1.0, 0.0])
    assert eval_f(L, S, problem) == np.inf


def test_eval_f_at_an_iterate_whose_sum_is_not_pd_is_inf():
    # L = -2I, S = I: Sigma = -I has no Cholesky factor, at an iterate as from matrices
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    L, S = -2.0 * np.eye(2), np.eye(2)
    it = Iterate.from_matrices(L, S, SymmetricBasis(2))
    assert it.chol_sigma is None
    assert eval_f_at(it, problem) == eval_f(L, S, problem) == np.inf


# ---------- barrier objective ----------

@pytest.mark.parametrize("tau", [-0.5, np.nan, np.inf, -np.inf])
def test_barrier_level_must_be_finite_and_nonnegative(tau):
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        BarrierObjective(problem, tau)
    assert BarrierObjective(problem, 0.0).tau == 0.0


@pytest.mark.parametrize("tau", [-0.5, np.nan, np.inf])
def test_barrier_level_out_of_range_is_a_config_error(tau):
    # the documented type for a parameter out of its range
    with pytest.raises(ConfigError, match="tau must be finite and >= 0"):
        BarrierObjective(ProblemData(np.eye(2), C=1.0, mu=1.0), tau)


def test_eval_h_tau_hand_value():
    # Sigma_check = I (p=2), mu=1, tau=0.5, L = S = I/2:
    # f = 3; barrier = -0.5*(log det(I/2) + log det(I/2)) = 2 log 2
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.5)
    basis = SymmetricBasis(2)
    it = Iterate.from_matrices(0.5 * np.eye(2), 0.5 * np.eye(2), basis)
    assert_allclose(eval_h_tau(it, barrier), 3.0 + 2.0 * np.log(2.0), rtol=1e-14)


def test_eval_h_tau_boundary_is_inf():
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.5)
    basis = SymmetricBasis(2)
    it = Iterate.from_matrices(np.eye(2), np.diag([1.0, 0.0]), basis)
    assert eval_h_tau(it, barrier) == np.inf


def test_eval_h_tau_compositional_consistency():
    # h must equal f plus the barrier computed separately, on random PD pairs
    rng = np.random.default_rng(7)
    problem = ProblemData(random_spd(rng, 4), C=1.0, mu=2.3)
    barrier = BarrierObjective(problem, tau=0.37)
    basis = SymmetricBasis(4)
    for _ in range(100):
        L = random_spd(rng, 4, shift=0.5)
        S = random_spd(rng, 4, shift=0.5)
        it = Iterate.from_matrices(L, S, basis)
        separate = eval_f(L, S, problem) - 0.37 * (
            np.log(np.linalg.det(L)) + np.log(np.linalg.det(S))
        )
        assert abs(eval_h_tau(it, barrier) - separate) < 1e-10 * max(1.0, abs(separate))


def test_objective_values_memoized_per_problem_and_tau(monkeypatch):
    # a repeat call returns f's identical float and an equal h; another tau or problem recomputes
    rng = np.random.default_rng(8)
    problem = ProblemData(random_spd(rng, 4), C=1.0, mu=2.3)
    other = ProblemData(problem.sigma_check, C=1.0, mu=5.0)
    it, basis = random_interior_point(rng, 4)
    h = eval_h_tau(it, BarrierObjective(problem, tau=0.37))
    f = eval_f_at(it, problem)
    calls = []
    smooth_f = lsfa.objective._smooth_f
    monkeypatch.setattr(lsfa.objective, "_smooth_f", lambda *a: calls.append(a) or smooth_f(*a))
    assert eval_h_tau(it, BarrierObjective(problem, tau=0.37)).hex() == h.hex()
    assert eval_f_at(it, problem) is f
    assert calls == []
    # another tau reuses f, another problem recomputes it; each equals a fresh evaluation
    h_low = eval_h_tau(it, BarrierObjective(problem, tau=0.1))
    assert calls == [] and h_low != h
    h_other = eval_h_tau(it, BarrierObjective(other, tau=0.37))
    assert len(calls) == 1 and h_other != h
    assert h_low == eval_h_tau(Iterate(it.ell, it.s, basis), BarrierObjective(problem, tau=0.1))
    assert h_other == eval_h_tau(Iterate(it.ell, it.s, basis), BarrierObjective(other, tau=0.37))


@pytest.mark.parametrize("moved", ["ell", "s"])
def test_one_block_trial_matches_a_fresh_iterate(moved):
    rng = np.random.default_rng(9)
    barrier = BarrierObjective(ProblemData(random_spd(rng, 4), C=1.0, mu=2.3), tau=0.37)
    it, basis = random_interior_point(rng, 4)
    step = 0.01 * rng.standard_normal(basis.m)
    if moved == "ell":
        trial, kept = Iterate(it.ell + step, it.s, basis, it), "S"
    else:
        trial, kept = Iterate(it.ell, it.s + step, basis, it), "L"
    fresh = Iterate(trial.ell.copy(), trial.s.copy(), basis)
    for name in ("ell", "s", "L", "S", "sigma", "chol_L", "chol_S", "chol_sigma",
                 "inv_L", "inv_S", "inv_sigma"):
        assert np.array_equal(getattr(trial, name), getattr(fresh, name)), name
    assert (trial.logdet_L, trial.logdet_S) == (fresh.logdet_L, fresh.logdet_S)
    assert eval_h_tau(trial, barrier) == eval_h_tau(fresh, barrier)
    # the unmoved block is the source's own: its factor, and an inverse computed
    # through either iterate, serve both; Sigma is the trial's own
    for name in (kept, f"chol_{kept}", f"inv_{kept}", f"logdet_{kept}"):
        assert getattr(trial, name) is getattr(it, name), name
    assert trial.chol_sigma is not it.chol_sigma
    # an equal array that is not the source's object rebuilds the block
    copied = Iterate(it.ell.copy(), it.s.copy(), basis, it)
    assert copied.chol_L is not it.chol_L and copied.chol_S is not it.chol_S


def test_one_block_trial_with_a_moved_block_off_the_cone_is_infeasible():
    rng = np.random.default_rng(10)
    problem = ProblemData(random_spd(rng, 4), C=1.0, mu=2.3)
    it, basis = random_interior_point(rng, 4)
    # L indefinite, while the shared S keeps Sigma = L + S positive definite
    trial = Iterate(basis.mat_to_vec(np.diag([0.1, 0.1, 0.1, -0.05])), it.s, basis, it)
    assert trial.chol_S is it.chol_S is not None
    assert trial.chol_L is None and trial.chol_sigma is not None
    assert not trial.is_strictly_feasible
    assert np.isfinite(eval_f_at(trial, problem))
    assert eval_h_tau(trial, BarrierObjective(problem, tau=0.37)) == np.inf
    with pytest.raises(InfeasiblePointError, match="L is not positive definite"):
        trial.inv_L
    # S is positive definite, so its inverse is there to read
    assert_allclose(trial.inv_S, np.linalg.inv(trial.S), rtol=1e-10)


# ---------- Cholesky factor ----------

@pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 20, 40, 60])
def test_try_cholesky_matches_numpy_on_spd_matrices(p):
    rng = np.random.default_rng(60 + p)
    for _ in range(5):
        A = random_spd(rng, p, shift=0.1)
        chol = _Block(A, "A").chol
        # numpy and scipy may link different LAPACK builds: equal to rounding
        assert_allclose(chol, np.linalg.cholesky(A), rtol=0, atol=1e-15 * np.abs(chol).max())
        assert not np.triu(chol, 1).any()


def _not_positive_definite(p):
    rng = np.random.default_rng(70 + p)
    B = rng.standard_normal((p, p))
    zero_row = random_spd(rng, p)
    zero_row[p // 2, :] = zero_row[:, p // 2] = 0.0
    return {
        "indefinite": B + B.T,
        "negative-definite": -random_spd(rng, p),
        "singular-ones": np.ones((p, p)),
        "singular-zero-row": zero_row,
        "zero": np.zeros((p, p)),
    }


@pytest.mark.parametrize("p", [2, 5, 20, 60])
def test_try_cholesky_is_none_exactly_where_numpy_raises(p):
    for kind, A in _not_positive_definite(p).items():
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(A)
        assert _Block(A, "A").chol is None, kind


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_block_is_not_positive_definite(bad, where):
    # built from coordinates, so mat_to_vec's symmetry check is not on the way:
    # the factorization alone rejects the block
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    basis = SymmetricBasis(3)
    ell = basis.mat_to_vec(np.eye(3))
    ell[np.flatnonzero(basis.off_diag == (where == "off-diagonal"))[0]] = bad
    for it in (Iterate(ell, basis.mat_to_vec(np.eye(3)), basis),
               Iterate(basis.mat_to_vec(np.eye(3)), ell, basis)):
        assert not it.is_strictly_feasible
        assert eval_h_tau(it, BarrierObjective(problem, tau=0.5)) == np.inf


# ---------- block inverse ----------

@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("p", [5, 40])
def test_block_inverse_matches_numpy_to_its_condition(p, cond):
    rng = np.random.default_rng(80 + p)
    eps = np.finfo(float).eps
    for _ in range(3):
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        M = (Q * np.geomspace(1.0, 1.0 / cond, p)) @ Q.T
        block = _Block(0.5 * (M + M.T), "M")
        expected = np.linalg.inv(block.M)
        # the oracle's own error is of the same order
        assert (np.linalg.norm(block.inv - expected)
                <= 4 * np.linalg.cond(block.M) * eps * np.linalg.norm(expected))
        assert np.array_equal(block.inv, block.inv.T)
        C, Li = block.chol, block.chol_inv
        assert not np.triu(Li, 1).any()
        assert (np.linalg.norm(Li @ C - np.eye(p))
                <= p * eps * np.linalg.norm(Li) * np.linalg.norm(C))


def _pencil_with_condition(rng, p, cond):
    """A unit-norm Sigma of condition `cond` split as L + S, with the pencil's
    eigenvalues drawn from (0.1, 0.9), so that L and S are positive definite."""
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sigma = (Q * np.geomspace(1.0, 1.0 / cond, p)) @ Q.T
    sigma = 0.5 * (sigma + sigma.T)
    root = (Q * np.geomspace(1.0, 1.0 / cond, p) ** 0.5) @ Q.T
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    L = root @ (Q * rng.uniform(0.1, 0.9, p)) @ Q.T @ root
    L = 0.5 * (L + L.T)
    return Iterate.from_matrices(L, sigma - L, SymmetricBasis(p))


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
@pytest.mark.parametrize("p", [5, 40])
def test_pencil_eigenbasis_matches_the_generalized_eigenproblem(p, cond):
    rng = np.random.default_rng(70 + p)
    eps = np.finfo(float).eps
    for _ in range(3):
        it = _pencil_with_condition(rng, p, cond)
        lam, W = it.pencil_eigenbasis
        bound = 4 * p * np.linalg.cond(it.sigma) * eps
        expected = scipy.linalg.eigh(it.L, it.sigma, eigvals_only=True)
        assert np.abs(lam - expected).max() <= bound
        assert np.linalg.norm(W.T @ it.sigma @ W - np.eye(p), 2) <= bound
        assert np.linalg.norm(it.L @ W - it.sigma @ W * lam, 2) <= bound
        assert it.pencil_eigenbasis is it.pencil_eigenbasis


def test_one_block_trial_shares_the_triangular_inverse_it_does_not_move(monkeypatch):
    calls = []
    trtri = lsfa.objective._trtri

    def counting(*args, **kwargs):
        calls.append(1)
        return trtri(*args, **kwargs)

    monkeypatch.setattr(lsfa.objective, "_trtri", counting)
    rng = np.random.default_rng(13)
    it, basis = random_interior_point(rng, 4)
    it.inv_L, it.inv_S
    assert len(calls) == 2
    step = 0.01 * rng.standard_normal(basis.m)
    ell_trial = Iterate(it.ell + step, it.s, basis, it)
    assert ell_trial.inv_S is it.inv_S and len(calls) == 2
    s_trial = Iterate(it.ell, it.s + step, basis, it)
    assert s_trial.chol_inv_L is it.chol_inv_L and s_trial.inv_L is it.inv_L
    assert len(calls) == 2
    ell_trial.inv_L
    assert len(calls) == 3


# ---------- gradient ----------

def _fd_gradient(it, barrier, step=1e-5):
    basis = it.basis
    g_ell = np.zeros(basis.m)
    g_s = np.zeros(basis.m)
    for a in range(basis.m):
        e = np.zeros(basis.m)
        e[a] = step
        g_ell[a] = (
            eval_h_tau(Iterate(it.ell + e, it.s, basis), barrier)
            - eval_h_tau(Iterate(it.ell - e, it.s, basis), barrier)
        ) / (2 * step)
        g_s[a] = (
            eval_h_tau(Iterate(it.ell, it.s + e, basis), barrier)
            - eval_h_tau(Iterate(it.ell, it.s - e, basis), barrier)
        ) / (2 * step)
    return g_ell, g_s


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for p in range(2, 7):
        for _ in range(4):
            problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 3.0))
            barrier = BarrierObjective(problem, tau=rng.uniform(0.05, 1.0))
            it, _ = random_interior_point(rng, p)
            g_ell, g_s = grad_h_tau(it, barrier)
            fd_ell, fd_s = _fd_gradient(it, barrier)
            scale = max(1.0, np.linalg.norm(np.concatenate([g_ell, g_s])))
            err = np.linalg.norm(np.concatenate([fd_ell - g_ell, fd_s - g_s])) / scale
            assert err < 1e-6
            checked += 1
    assert checked == 20


def _p_by_p_gradient(it, barrier):
    """Oracle: the symmetric parts of the p x p gradients, in coordinates."""
    problem, tau = barrier.problem, barrier.tau
    M = problem.mu * (problem.sigma_check_inv - it.inv_sigma)
    g_ell = np.eye(problem.p) + M - tau * it.inv_L
    g_s = M - tau * it.inv_S
    return it.basis.sym_part_to_vec(g_ell), it.basis.sym_part_to_vec(g_s)


def _nearly_singular_S(rng, p):
    """An iterate whose S has condition number 1e12, on random eigenvectors."""
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    S = (Q * np.geomspace(1.0, 1e-12, p)) @ Q.T
    return Iterate.from_matrices(random_spd(rng, p), 0.5 * (S + S.T), SymmetricBasis(p))


@pytest.mark.parametrize("case", ["random", "tau=0", "nearly singular S"])
@pytest.mark.parametrize("p", [1, 2, 5, 40])
def test_gradient_is_bit_for_bit_the_p_by_p_formula(p, case):
    # the coordinates are gathered from exactly symmetric inverses, so they
    # match the mean of the mirrored entries in every bit, signed zeros too
    rng = np.random.default_rng(60 + p)
    for _ in range(3):
        problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 300.0))
        tau = 0.0 if case == "tau=0" else rng.uniform(1e-6, 1.0)
        barrier = BarrierObjective(problem, tau=tau)
        if case == "nearly singular S":
            it = _nearly_singular_S(rng, p)
        else:
            it, _ = random_interior_point(rng, p)
        for got, expected in zip(grad_h_tau(it, barrier), _p_by_p_gradient(it, barrier)):
            assert got.tobytes() == expected.tobytes()


def test_gradient_step_scaling_sanity():
    # central differences improve roughly quadratically as the step shrinks
    rng = np.random.default_rng(3)
    problem = ProblemData(random_spd(rng, 3), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.2)
    it, _ = random_interior_point(rng, 3)
    g = np.concatenate(grad_h_tau(it, barrier))
    errs = []
    for step in (4e-4, 1e-4):
        fd = np.concatenate(_fd_gradient(it, barrier, step=step))
        errs.append(np.linalg.norm(fd - g))
    assert errs[1] < errs[0] / 3


def test_gradient_blocks_differ_by_the_trace_term():
    # tau = 0: the fit term enters both blocks alike, so g_ell - g_s = vec(I) for any mu
    rng = np.random.default_rng(9)
    problem = ProblemData(random_spd(rng, 3), C=1.0, mu=7.0)
    barrier = BarrierObjective(problem, tau=0.0)
    it, basis = random_interior_point(rng, 3)
    g_ell, g_s = grad_h_tau(it, barrier)
    assert_allclose(g_ell - g_s, basis.mat_to_vec(np.eye(3)), atol=1e-12)


def test_problem_data_rejects_a_zero_fit_weight():
    with pytest.raises(ConfigError, match="mu must be"):
        ProblemData(np.eye(3), C=1.0, mu=0.0)


def test_gradient_vanishing_mismatch():
    # at L = S = Sigma_check/2 with tau = 0, the fit term cancels
    rng = np.random.default_rng(10)
    sigma = random_spd(rng, 4)
    problem = ProblemData(sigma, C=1.0, mu=2.0)
    barrier = BarrierObjective(problem, tau=0.0)
    basis = SymmetricBasis(4)
    it = Iterate.from_matrices(0.5 * sigma, 0.5 * sigma, basis)
    g_ell, g_s = grad_h_tau(it, barrier)
    assert_allclose(g_s, np.zeros(basis.m), atol=1e-12)
    assert_allclose(g_ell, basis.mat_to_vec(np.eye(4)), atol=1e-12)


@pytest.mark.parametrize("derivative", [
    grad_h_tau,
    hessian_blocks,
    lambda it, barrier: hessian_vector_product(it, barrier, it.ell, it.s),
], ids=["grad_h_tau", "hessian_blocks", "hessian_vector_product"])
def test_gradient_requires_feasible_point(derivative):
    # none checks feasibility itself: the first inverse it reads raises
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(2)
    it = Iterate.from_matrices(-np.eye(2), np.eye(2), basis)
    with pytest.raises(InfeasiblePointError):
        derivative(it, barrier)


# ---------- hessian ----------

def _fd_hessian(it, barrier, step=1e-5):
    basis = it.basis
    m = basis.m
    H = np.zeros((2 * m, 2 * m))
    for a in range(m):
        e = np.zeros(m)
        e[a] = step
        gp = grad_h_tau(Iterate(it.ell + e, it.s, basis), barrier)
        gm = grad_h_tau(Iterate(it.ell - e, it.s, basis), barrier)
        H[a, :m] = (gp[0] - gm[0]) / (2 * step)
        H[a, m:] = (gp[1] - gm[1]) / (2 * step)
        gp = grad_h_tau(Iterate(it.ell, it.s + e, basis), barrier)
        gm = grad_h_tau(Iterate(it.ell, it.s - e, basis), barrier)
        H[m + a, :m] = (gp[0] - gm[0]) / (2 * step)
        H[m + a, m:] = (gp[1] - gm[1]) / (2 * step)
    return H


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(21)
    checked = 0
    for p in (2, 3, 4, 5):
        for _ in range(3 if p < 5 else 1):
            problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.5, 2.0))
            barrier = BarrierObjective(problem, tau=rng.uniform(0.1, 0.8))
            it, _ = random_interior_point(rng, p)
            H = hessian_h_tau(it, barrier)
            fd = _fd_hessian(it, barrier)
            assert np.abs(fd - H).max() / np.abs(H).max() < 1e-4
            checked += 1
    assert checked == 10


def test_hessian_positive_definite_at_interior_points():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        problem = ProblemData(random_spd(rng, p), C=1.0, mu=rng.uniform(0.2, 3.0))
        barrier = BarrierObjective(problem, tau=rng.uniform(0.05, 1.0))
        it, _ = random_interior_point(rng, p)
        eigs = np.linalg.eigvalsh(hessian_h_tau(it, barrier))
        assert eigs.min() > 0


def test_hessian_vector_product_matches_dense_hessian():
    rng = np.random.default_rng(23)
    for p in (1, 3, 5):
        problem = ProblemData(random_spd(rng, p), C=1.0, mu=1.5)
        barrier = BarrierObjective(problem, tau=0.3)
        it, basis = random_interior_point(rng, p)
        H = hessian_h_tau(it, barrier)
        for _ in range(3):
            x = rng.standard_normal(2 * basis.m)
            Hx = np.concatenate(hessian_vector_product(it, barrier, x[:basis.m], x[basis.m:]))
            assert_allclose(Hx, H @ x, rtol=1e-12, atol=1e-12 * np.abs(H).max())


def test_hessian_scalar_closed_form():
    # p=1, L=S=[1], mu=1, tau=1, Sigma=2: H = [[1.25, 0.25], [0.25, 1.25]]
    problem = ProblemData(np.array([[2.0]]), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=1.0)
    basis = SymmetricBasis(1)
    it = Iterate(np.array([1.0]), np.array([1.0]), basis)
    assert_allclose(hessian_h_tau(it, barrier), [[1.25, 0.25], [0.25, 1.25]], rtol=1e-14)


def test_hessian_bounded_on_compact_box():
    # spectral norm stays bounded over a sampled compact set of interior points
    rng = np.random.default_rng(23)
    problem = ProblemData(random_spd(rng, 3), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.3)
    norms = []
    for _ in range(25):
        it, _ = random_interior_point(rng, 3, shift=1.0)
        norms.append(np.linalg.norm(hessian_h_tau(it, barrier), 2))
    assert max(norms) < 1e4
