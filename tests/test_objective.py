import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    BarrierObjective,
    DataError,
    InfeasiblePointError,
    Iterate,
    ProblemData,
    SymmetricBasis,
    eval_f,
    eval_h_tau,
    grad_h_tau,
    hessian_h_tau,
    hessian_vector_product,
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


# ---------- barrier objective ----------

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


def test_gradient_degenerate_weights():
    # mu = 0, tau = 0: only tr(L) survives
    rng = np.random.default_rng(9)
    problem = ProblemData(random_spd(rng, 3), C=1.0, mu=0.0)
    barrier = BarrierObjective(problem, tau=0.0)
    it, basis = random_interior_point(rng, 3)
    g_ell, g_s = grad_h_tau(it, barrier)
    assert_allclose(g_ell, basis.mat_to_vec(np.eye(3)), atol=1e-12)
    assert_allclose(g_s, np.zeros(basis.m), atol=1e-12)


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


def test_gradient_requires_feasible_point():
    problem = ProblemData(np.eye(2), C=1.0, mu=1.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(2)
    it = Iterate.from_matrices(-np.eye(2), np.eye(2), basis)
    with pytest.raises(InfeasiblePointError):
        grad_h_tau(it, barrier)


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
