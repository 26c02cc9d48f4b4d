import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (
    ConfigError,
    GroundTruth,
    Solution,
    gaussian_kl,
    generate_ground_truth,
    recovery_metrics,
    sample_observations,
)
from conftest import random_spd


def test_default_scale_invariants():
    truth = generate_ground_truth(p=40, r=5, snr=1.0, seed=0)
    assert truth.Gamma.shape == (40, 5)
    assert np.linalg.matrix_rank(truth.Gamma @ truth.Gamma.T) == 5
    np.linalg.cholesky(truth.S_hat)  # PD certificate
    off_diag = truth.S_hat[~np.eye(40, dtype=bool)]
    assert np.count_nonzero(off_diag) > 0  # noise covariance is not diagonal
    snr = np.linalg.norm(truth.Gamma @ truth.Gamma.T) / np.linalg.norm(truth.S_hat)
    assert abs(snr - 1.0) < 1e-10


@pytest.mark.parametrize("snr", [0.5, 1.0, 4.0])
def test_snr_rescaling_exact(snr):
    truth = generate_ground_truth(p=12, r=3, snr=snr, seed=5)
    got = np.linalg.norm(truth.Gamma @ truth.Gamma.T) / np.linalg.norm(truth.S_hat)
    assert abs(got - snr) < 1e-10


@pytest.mark.parametrize("p", [2, 3, 7, 20, 41])
def test_loading_matrix_is_the_seeds_first_draw(p):
    # Gamma is drawn once, with no full-rank retry, so every later draw of
    # the instance comes from the same point of the random stream
    for r in sorted({1, p // 2 or 1, p - 1}):
        for seed in range(12):
            truth = generate_ground_truth(p, r, density=0.3, snr=1.0, seed=seed)
            first = np.random.default_rng(seed).standard_normal((p, r))
            assert np.array_equal(truth.Gamma, first), (p, r, seed)


def test_determinism_and_seed_sensitivity():
    a = generate_ground_truth(p=10, r=2, seed=3)
    b = generate_ground_truth(p=10, r=2, seed=3)
    c = generate_ground_truth(p=10, r=2, seed=4)
    assert np.array_equal(a.Gamma, b.Gamma)
    assert np.array_equal(a.S_hat, b.S_hat)
    assert np.array_equal(a.support_mask, b.support_mask)
    assert not np.array_equal(a.S_hat, c.S_hat)


def test_sigma_decomposition_consistency():
    truth = generate_ground_truth(p=8, r=2, seed=1)
    assert_allclose(truth.Sigma_hat, truth.Gamma @ truth.Gamma.T + truth.S_hat, rtol=1e-15)
    assert_allclose(truth.support_mask, truth.S_hat != 0)


@pytest.mark.parametrize("p,r", [(4, 4), (4, 5), (4, 0)])
def test_invalid_factor_count(p, r):
    with pytest.raises(ConfigError):
        generate_ground_truth(p=p, r=r)


def test_invalid_density_and_snr():
    with pytest.raises(ConfigError):
        generate_ground_truth(p=5, r=2, density=0.0)
    with pytest.raises(ConfigError):
        generate_ground_truth(p=5, r=2, snr=0.0)


# ---------- sampling ----------

def test_single_observation_shape():
    truth = generate_ground_truth(p=6, r=2, seed=2)
    y = sample_observations(truth, 1, seed=0)
    assert y.shape == (1, 6)


def test_zero_observations_rejected():
    truth = generate_ground_truth(p=6, r=2, seed=2)
    for N in (0, 2.5, True):
        with pytest.raises(ConfigError, match="N must be an integer"):
            sample_observations(truth, N)


def test_monte_carlo_covariance():
    # empirical covariance of many draws matches Sigma_hat within 3 SEs
    truth = generate_ground_truth(p=4, r=2, density=0.3, seed=6)
    n = 1_000_000
    Y = sample_observations(truth, n, seed=7)
    emp = Y.T @ Y / n
    sig = truth.Sigma_hat
    se = np.sqrt((np.outer(np.diag(sig), np.diag(sig)) + sig**2) / n)
    assert np.all(np.abs(emp - sig) <= 3.0 * se)


def test_monte_carlo_pure_noise():
    # zero loading matrix: observations reduce to noise with covariance S_hat
    base = generate_ground_truth(p=4, r=2, density=0.3, seed=8)
    truth = GroundTruth(
        Gamma=np.zeros((4, 2)),
        S_hat=base.S_hat,
        Sigma_hat=base.S_hat,
        support_mask=base.support_mask,
        r=2,
        seed=8,
    )
    n = 500_000
    Y = sample_observations(truth, n, seed=9)
    emp = Y.T @ Y / n
    se = np.sqrt((np.outer(np.diag(base.S_hat), np.diag(base.S_hat)) + base.S_hat**2) / n)
    assert np.all(np.abs(emp - base.S_hat) <= 3.0 * se)


def test_sampling_determinism():
    truth = generate_ground_truth(p=5, r=2, seed=10)
    assert np.array_equal(sample_observations(truth, 50, seed=1),
                          sample_observations(truth, 50, seed=1))


# ---------- metrics ----------

def _solution_from(L, S, rank, support):
    return Solution(
        L_star=L, S_star=S, ell_star=np.zeros(1), s_star=np.zeros(1),
        rank_estimate=rank, support=support,
    )


def test_metrics_perfect_recovery():
    truth = generate_ground_truth(p=6, r=2, density=0.3, seed=11)
    sol = _solution_from(truth.Gamma @ truth.Gamma.T, truth.S_hat, 2, truth.support_mask)
    metrics = recovery_metrics(sol, truth)
    assert metrics["rank_match"] is True
    assert metrics["support_fscore"] == 1.0
    assert metrics["rel_err_L"] < 1e-15
    assert metrics["rel_err_S"] < 1e-15
    assert abs(metrics["kl_to_truth"]) < 1e-10


def test_metrics_zero_sparse_estimate():
    truth = generate_ground_truth(p=6, r=2, density=0.3, seed=12)
    sol = _solution_from(truth.Sigma_hat, 1e-12 * np.eye(6), 6, np.zeros((6, 6), dtype=bool))
    metrics = recovery_metrics(sol, truth)
    assert metrics["support_fscore"] == 0.0
    assert metrics["rank_match"] is False


def test_kl_properties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = random_spd(rng, 4)
        B = random_spd(rng, 4)
        assert gaussian_kl(A, A) == pytest.approx(0.0, abs=1e-12)
        if not np.allclose(A, B):
            assert gaussian_kl(A, B) > 0
            assert gaussian_kl(B, A) > 0
