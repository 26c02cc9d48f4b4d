"""Synthetic factor-model generation and recovery metrics.

Observations follow y_i = Gamma u_i + w_i with u_i ~ N(0, I_r) and
w_i ~ N(0, S_hat), so the population covariance splits as
Sigma_hat = Gamma Gamma^T + S_hat: a rank-r part plus a sparse part.  S_hat
is built as a sparse symmetric matrix with random off-diagonal support, made
positive definite by strict diagonal dominance, then rescaled so that the
signal-to-noise ratio ||Gamma Gamma^T||_F / ||S_hat||_F hits its target
exactly.  Off-diagonal magnitudes are drawn from [0.5, 1.5] with random sign
(before rescaling) so the true support stays bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, require_count, require_positive
from .objective import _logdet_from_chol


@dataclass
class GroundTruth:
    """Generator output: loading matrix, noise covariance, and bookkeeping."""

    Gamma: np.ndarray  # p x r loading matrix, full column rank
    S_hat: np.ndarray  # sparse positive-definite p x p noise covariance
    Sigma_hat: np.ndarray  # Gamma Gamma^T + S_hat
    support_mask: np.ndarray  # boolean p x p mask of nonzero entries of S_hat
    r: int
    seed: int


def check_instance(p: int, r: int, density: float, snr: float) -> None:
    """Raise ConfigError unless generate_ground_truth accepts these sizes and ratios."""
    if not 1 <= r < p:
        raise ConfigError(f"factor count must satisfy 1 <= r < p, got r={r}, p={p}")
    if not 0 < density <= 1:
        raise ConfigError(f"density must be in (0, 1], got {density}")
    require_positive(snr=snr)


def generate_ground_truth(
    p: int,
    r: int,
    density: float = 0.05,
    snr: float = 1.0,
    seed: int = 0,
) -> GroundTruth:
    """Draw a random instance with the requested dimensions and SNR.

    Args:
        p: observation dimension.
        r: number of hidden factors, 1 <= r < p.
        density: probability that an off-diagonal pair of the noise
            covariance is nonzero (at least one pair is always kept, since
            the noise must not be diagonal).
        snr: target ||Gamma Gamma^T||_F / ||S_hat||_F.
        seed: RNG seed; identical seeds give bit-identical outputs.
    """
    check_instance(p, r, density, snr)
    rng = np.random.default_rng(seed)
    Gamma = rng.standard_normal((p, r))  # full column rank almost surely
    L_hat = Gamma @ Gamma.T

    iu, ju = np.triu_indices(p, k=1)
    keep = rng.random(iu.size) < density
    if not keep.any():
        keep[rng.integers(iu.size)] = True
    values = rng.uniform(0.5, 1.5, size=iu.size) * rng.choice([-1.0, 1.0], size=iu.size)
    S = np.zeros((p, p))
    S[iu[keep], ju[keep]] = values[keep]
    S = S + S.T
    # Strict diagonal dominance makes S positive definite without eigenwork.
    S[np.diag_indices(p)] = np.abs(S).sum(axis=1) + rng.uniform(0.5, 1.5, size=p)

    scale = np.linalg.norm(L_hat) / (snr * np.linalg.norm(S))
    S_hat = scale * S
    np.linalg.cholesky(S_hat)  # positive-definiteness certificate

    return GroundTruth(
        Gamma=Gamma,
        S_hat=S_hat,
        Sigma_hat=L_hat + S_hat,
        support_mask=S_hat != 0,
        r=r,
        seed=seed,
    )


def sample_observations(truth: GroundTruth, N: int, seed: int = 0) -> np.ndarray:
    """Draw N observations y_i = Gamma u_i + w_i as an N x p array."""
    require_count(N=N)
    rng = np.random.default_rng(seed)
    p = truth.S_hat.shape[0]
    U = rng.standard_normal((N, truth.Gamma.shape[1]))
    Z = rng.standard_normal((N, p))
    noise_factor = np.linalg.cholesky(truth.S_hat)
    return U @ truth.Gamma.T + Z @ noise_factor.T


def gaussian_kl(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """KL divergence between zero-mean Gaussians N(0, cov_p) and N(0, cov_q)."""
    cov_p = np.asarray(cov_p, dtype=float)
    cov_q = np.asarray(cov_q, dtype=float)
    p = cov_p.shape[0]
    chol_q = np.linalg.cholesky(cov_q)
    chol_p = np.linalg.cholesky(cov_p)
    trace_term = float(np.sum(scipy.linalg.cho_solve((chol_q, True), cov_p).diagonal()))
    return 0.5 * (trace_term - p + _logdet_from_chol(chol_q) - _logdet_from_chol(chol_p))


def recovery_metrics(solution, truth: GroundTruth) -> dict:
    """Score a solver Solution against the generating ground truth.

    The support F-score is computed over off-diagonal entries only; relative
    errors are Frobenius; the KL term compares the fitted covariance
    L* + S* with the population Sigma_hat.
    """
    L_true = truth.Gamma @ truth.Gamma.T
    p = L_true.shape[0]
    off = ~np.eye(p, dtype=bool)
    predicted = solution.support & off
    actual = truth.support_mask & off
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    fscore = 1.0 if (tp + fp + fn) == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
    return {
        "rank_match": solution.rank_estimate == truth.r,
        "support_fscore": fscore,
        "rel_err_L": float(np.linalg.norm(solution.L_star - L_true) / np.linalg.norm(L_true)),
        "rel_err_S": float(np.linalg.norm(solution.S_star - truth.S_hat) / np.linalg.norm(truth.S_hat)),
        "kl_to_truth": gaussian_kl(solution.L_star + solution.S_star, truth.Sigma_hat),
    }
