"""Smooth objective, log-barrier form, and derivatives in basis coordinates.

The smooth fit term is

    f(L, S) = tr(L) + mu * { tr[(L+S) Sigma_check^{-1}] - log det(L+S) },

where tr(L) is the convex surrogate for rank and the braced part is (up to a
constant) the Gaussian Kullback-Leibler divergence between the candidate
covariance Sigma = L + S and the sample covariance Sigma_check.  The barrier
form subtracts tau * [log det L + log det S] to keep iterates strictly inside
the positive-definite cone; on boundary or exterior points every evaluation
returns +inf instead of raising, so line searches can reject infeasible trial
points through the ordinary sufficient-decrease test.

Derivatives follow from d(-log det X)[D] = -tr(X^{-1} D) and
d(X^{-1})[D] = -X^{-1} D X^{-1}:

    grad_ell  h = vec( I + mu (Sigma_check^{-1} - Sigma^{-1}) - tau L^{-1} )
    grad_s    h = vec(     mu (Sigma_check^{-1} - Sigma^{-1}) - tau S^{-1} )
    H_{ll}[a,b] = mu tr(E_a Sigma^{-1} E_b Sigma^{-1}) + tau tr(E_a L^{-1} E_b L^{-1})
    H_{ls}[a,b] = mu tr(E_a Sigma^{-1} E_b Sigma^{-1})
    H_{ss}[a,b] = mu tr(E_a Sigma^{-1} E_b Sigma^{-1}) + tau tr(E_a S^{-1} E_b S^{-1})

The Hessian is positive definite at every strictly feasible point; the tests
cross-check all formulas against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError, InfeasiblePointError, require_positive
from .symbasis import SymmetricBasis


def sample_covariance(samples) -> np.ndarray:
    """Second-moment average (1/N) sum_i y_i y_i^T of the sample rows.

    Args:
        samples: N x p array (or list of N length-p vectors).

    Returns:
        Symmetric positive-semidefinite p x p matrix.

    Raises:
        DataError: the rows are ragged, empty, or not finite.
    """
    try:
        Y = np.asarray(samples, dtype=float)
    except ValueError as exc:
        raise DataError(f"samples have non-uniform lengths: {exc}") from exc
    if Y.ndim != 2:
        raise DataError(f"samples must form an N x p array, got ndim={Y.ndim}")
    if Y.shape[0] == 0:
        raise DataError("need at least one sample")
    if not np.isfinite(Y).all():
        raise DataError("samples contain NaN or infinite values")
    cov = Y.T @ Y / Y.shape[0]
    return 0.5 * (cov + cov.T)


def _try_cholesky(A: np.ndarray):
    """Lower Cholesky factor of A, or None when A is not positive definite."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _inv_from_chol(chol: np.ndarray) -> np.ndarray:
    inv = scipy.linalg.cho_solve((chol, True), np.eye(chol.shape[0]))
    return 0.5 * (inv + inv.T)


class ProblemData:
    """Fixed problem data: sample covariance, cached inverse, and weights.

    Args:
        sigma_check: finite, symmetric positive-definite p x p sample
            covariance; any other matrix raises DataError.
        C: sparsity weight on the noise block, finite and > 0.
        mu: fit (KL) weight, finite and > 0 (check_weights).  Zero is also
            accepted here, so that derivative identities can be exercised
            in the degenerate limit.
    """

    def __init__(self, sigma_check: np.ndarray, C: float, mu: float):
        S = np.asarray(sigma_check, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.size == 0:
            raise DataError(f"sample covariance must be square and non-empty, got shape {S.shape}")
        if not np.isfinite(S).all():
            raise DataError("sample covariance contains NaN or infinite values")
        if np.linalg.norm(S - S.T) > 1e-12 * np.linalg.norm(S):
            raise DataError("sample covariance must be symmetric")
        # mu = 0 passes too: the degenerate limit of the derivative identities
        self.check_weights(C, 1.0 if mu == 0 else mu)
        chol = _try_cholesky(S)
        if chol is None:
            raise DataError(
                "sample covariance is not positive definite (fewer samples than "
                "variables, or degenerate data); it must be invertible"
            )
        self.sigma_check = S
        self.sigma_check_chol = chol
        self.sigma_check_inv = _inv_from_chol(chol)
        self.C = float(C)
        self.mu = float(mu)
        self.p = S.shape[0]

    @staticmethod
    def check_weights(C: float, mu: float) -> None:
        """Raise ConfigError unless the weights C and mu are finite and > 0."""
        require_positive(C=C, mu=mu)


@dataclass(frozen=True)
class BarrierObjective:
    """The smooth objective augmented with the log-barrier at level tau."""

    problem: ProblemData
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"barrier parameter tau must be >= 0, got {self.tau}")


class Iterate:
    """A coordinate pair (ell, s) with cached matrices and factorizations.

    Building an iterate computes L, S, Sigma = L + S and attempts a Cholesky
    factorization of each; a failed factorization marks the point infeasible
    instead of raising.  Inverses are computed lazily because line-search
    trial points only ever need the log-determinants.
    """

    def __init__(self, ell: np.ndarray, s: np.ndarray, basis: SymmetricBasis):
        ell = np.array(ell, dtype=float)
        s = np.array(s, dtype=float)
        if ell.shape != (basis.m,) or s.shape != (basis.m,):
            raise ValueError(
                f"coordinate vectors must have length m={basis.m}, "
                f"got {ell.shape} and {s.shape}"
            )
        self.ell = ell
        self.s = s
        self.basis = basis
        self.L = basis.vec_to_mat(ell)
        self.S = basis.vec_to_mat(s)
        self.sigma = self.L + self.S
        self.chol_L = _try_cholesky(self.L)
        self.chol_S = _try_cholesky(self.S)
        self.chol_sigma = _try_cholesky(self.sigma)
        self._inv_L = None
        self._inv_S = None
        self._inv_sigma = None

    @classmethod
    def from_matrices(cls, L: np.ndarray, S: np.ndarray, basis: SymmetricBasis) -> "Iterate":
        return cls(basis.mat_to_vec(L), basis.mat_to_vec(S), basis)

    @property
    def is_strictly_feasible(self) -> bool:
        """True when both L and S (hence Sigma) are positive definite."""
        return self.chol_L is not None and self.chol_S is not None and self.chol_sigma is not None

    def _require_feasible(self):
        if not self.is_strictly_feasible:
            raise InfeasiblePointError("iterate is not strictly feasible (L or S is not PD)")

    @property
    def logdet_L(self) -> float:
        self._require_feasible()
        return _logdet_from_chol(self.chol_L)

    @property
    def logdet_S(self) -> float:
        self._require_feasible()
        return _logdet_from_chol(self.chol_S)

    @property
    def logdet_sigma(self) -> float:
        self._require_feasible()
        return _logdet_from_chol(self.chol_sigma)

    @property
    def inv_L(self) -> np.ndarray:
        self._require_feasible()
        if self._inv_L is None:
            self._inv_L = _inv_from_chol(self.chol_L)
        return self._inv_L

    @property
    def inv_S(self) -> np.ndarray:
        self._require_feasible()
        if self._inv_S is None:
            self._inv_S = _inv_from_chol(self.chol_S)
        return self._inv_S

    @property
    def inv_sigma(self) -> np.ndarray:
        self._require_feasible()
        if self._inv_sigma is None:
            self._inv_sigma = _inv_from_chol(self.chol_sigma)
        return self._inv_sigma


def eval_f(L: np.ndarray, S: np.ndarray, problem: ProblemData) -> float:
    """Smooth objective tr(L) + mu * {tr[(L+S) Sigma_check^{-1}] - log det(L+S)}.

    Returns +inf when L + S is not positive definite (boundary convention).
    """
    L = np.asarray(L, dtype=float)
    S = np.asarray(S, dtype=float)
    sigma = L + S
    chol = _try_cholesky(0.5 * (sigma + sigma.T))
    if chol is None:
        return np.inf
    fit = float(np.sum(sigma * problem.sigma_check_inv)) - _logdet_from_chol(chol)
    return float(np.trace(L)) + problem.mu * fit


def eval_f_at(iterate: Iterate, problem: ProblemData) -> float:
    """Smooth objective at an iterate, reusing its cached factorization.

    Sigma may be PD even when L or S alone is not, so this only requires the
    Sigma factorization.
    """
    if iterate.chol_sigma is None:
        return np.inf
    fit = float(np.sum(iterate.sigma * problem.sigma_check_inv)) - _logdet_from_chol(iterate.chol_sigma)
    return float(np.trace(iterate.L)) + problem.mu * fit


def eval_h_tau(iterate: Iterate, barrier: BarrierObjective) -> float:
    """Barrier objective f(L,S) - tau [log det L + log det S]; +inf off the cone."""
    if not iterate.is_strictly_feasible:
        return np.inf
    return eval_f_at(iterate, barrier.problem) - barrier.tau * (iterate.logdet_L + iterate.logdet_S)


def grad_h_tau(iterate: Iterate, barrier: BarrierObjective) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the barrier objective in basis coordinates.

    Returns:
        (g_ell, g_s), each of length m.
    """
    iterate._require_feasible()
    problem, tau = barrier.problem, barrier.tau
    M = problem.mu * (problem.sigma_check_inv - iterate.inv_sigma)
    g_ell_mat = np.eye(problem.p) + M - tau * iterate.inv_L
    g_s_mat = M - tau * iterate.inv_S
    basis = iterate.basis
    return basis.mat_to_vec(g_ell_mat), basis.mat_to_vec(g_s_mat)


def hessian_blocks(
    iterate: Iterate, barrier: BarrierObjective
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three distinct m x m blocks (H_ll, H_ls, H_ss) of the Hessian.

    A dense oracle: the Newton step applies the Hessian through
    hessian_vector_product and never forms these blocks.
    """
    iterate._require_feasible()
    basis = iterate.basis
    tau = barrier.tau
    mu_G_sigma = basis.sym_kron(iterate.inv_sigma)
    mu_G_sigma *= barrier.problem.mu
    H_ll = basis.sym_kron(iterate.inv_L)
    H_ll *= tau
    H_ll += mu_G_sigma
    H_ss = basis.sym_kron(iterate.inv_S)
    H_ss *= tau
    H_ss += mu_G_sigma
    return H_ll, mu_G_sigma, H_ss


def _congruence(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y X for symmetric X and Y, symmetrized against rounding."""
    Z = X @ Y @ X
    Z += Z.T
    Z *= 0.5
    return Z


def hessian_vector_product(
    iterate: Iterate, barrier: BarrierObjective, x_ell: np.ndarray, x_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The product of the Hessian with (x_ell, x_s), without forming it.

    Each block is a congruence map, so the product costs O(p^3):

        H [x_ell; x_s] = vec( mu Sigma^-1 (X_l + X_s) Sigma^-1 + tau L^-1 X_l L^-1 ;
                              mu Sigma^-1 (X_l + X_s) Sigma^-1 + tau S^-1 X_s S^-1 ).
    """
    iterate._require_feasible()
    basis = iterate.basis
    tau = barrier.tau
    X_l, X_s = basis.vec_to_mat(x_ell), basis.vec_to_mat(x_s)
    fit = _congruence(iterate.inv_sigma, X_l + X_s)
    fit *= barrier.problem.mu
    H_l = fit + tau * _congruence(iterate.inv_L, X_l)
    H_s = fit + tau * _congruence(iterate.inv_S, X_s)
    return basis.mat_to_vec(H_l), basis.mat_to_vec(H_s)


def hessian_h_tau(iterate: Iterate, barrier: BarrierObjective) -> np.ndarray:
    """Full symmetric 2m x 2m Hessian in the (ell, s) coordinate order."""
    H_ll, H_ls, H_ss = hessian_blocks(iterate, barrier)
    return np.block([[H_ll, H_ls], [H_ls.T, H_ss]])
