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

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ConfigError, DataError, InfeasiblePointError, NumericalBreakdownError,
                     require_positive)
from .symbasis import SymmetricBasis, require_symmetric


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


# The LAPACK factorization behind np.linalg.cholesky, the triangular inverse
# every block inverse is formed from, the symmetric eigensolver behind the
# pencil's eigenbasis, and the triangular solve the Newton step's factored
# preconditioner runs, called without numpy's and scipy's wrappers and
# argument checks.  At the sizes the solvers run, the wrappers cost about as
# much as the routines: one factorization took 5.7 us through numpy against
# 2.0 us here at p = 20, and 19 us against 11 us at p = 40.  A symmetrized
# inverse as trtri then the one GEMM Li^T Li took 6.7 us at p = 20, 17.4 us
# at p = 40 and 110 us at p = 100, against 10.2, 27.0 and 204 us by potrs
# against the identity, two triangular solves with p right-hand sides.
# The eigenbasis of (L, Sigma) as two GEMMs, syevd and one more GEMM, given
# Sigma's triangular inverse, took 47 us at p = 20, 154 us at p = 40, 877 us
# at p = 100 and 4.08 ms at p = 200, against 67 us, 195 us, 1.10 ms and
# 4.58 ms through scipy.linalg.eigh(L, Sigma), which checks both matrices,
# factors Sigma again and reduces the pencil by sygst.  One potrs with one
# right-hand side took 1.3, 8.7 and 22.9 us at n = 20, 100 and 200, against
# 7.5, 16.0 and 29.3 us through scipy.linalg.cho_solve, with the same bits
# (one core, OpenBLAS, best of 5 x 60 to 2000 calls).
# syevr is scipy.linalg.eigh's eigensolver, asked here for the one top
# eigenvalue the baseline's cone test reads (baseline.pencil_top).
_potrf, _trtri, _syevd, _syevr, _potrs = scipy.linalg.get_lapack_funcs(
    ("potrf", "trtri", "syevd", "syevr", "potrs"), (np.empty(0),))


def call_lapack(routine: str, matrix: str, *args, **kwargs) -> list:
    """The outputs of the LAPACK routine bound above as _<routine>, without its info.

    The one way lsfa calls LAPACK.  Every matrix these routines are handed
    is, by the problem's structure, one they cannot fail on (the factor of a
    positive-definite block, a symmetric reduced pencil), so a nonzero info
    is a numerical breakdown, and raises NumericalBreakdownError naming the
    routine, the info and `matrix`, with its first argument's shape.  One
    call reads its info itself: _Block's potrf, whose failure marks a matrix
    not positive definite.  The binding is looked up at each call, so that
    replacing it in this module reaches every caller.
    """
    *outputs, info = globals()[f"_{routine}"](*args, **kwargs)
    if info != 0:
        rows, cols = args[0].shape
        raise NumericalBreakdownError(
            f"LAPACK {routine} returned info={info} on {matrix} ({rows} x {cols})")
    return outputs


class ProblemData:
    """Fixed problem data: sample covariance, cached inverse, and weights.

    Args:
        sigma_check: finite, symmetric positive-definite p x p sample
            covariance; any other matrix raises DataError.  Symmetric is
            symbasis.require_symmetric's rule, and the symmetric part it
            returns is what is kept.
        C: sparsity weight on the noise block, finite and > 0.
        mu: fit (KL) weight, finite and > 0 (check_weights).
    """

    def __init__(self, sigma_check: np.ndarray, C: float, mu: float):
        # a copy: the problem keeps it, and later writes to the caller's
        # array must not reach it
        S = np.array(sigma_check, dtype=float)
        if S.size == 0:
            raise DataError(f"sample covariance must be non-empty, got shape {S.shape}")
        if not np.isfinite(S).all():
            raise DataError("sample covariance contains NaN or infinite values")
        S = require_symmetric(S, "the sample covariance")
        self.check_weights(C, mu)
        block = _Block(S, "the sample covariance")
        if block.chol is None:
            raise DataError(
                "sample covariance is not positive definite (fewer samples than "
                "variables, or degenerate data); it must be invertible"
            )
        self.sigma_check = S
        self.sigma_check_inv = block.inv
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
        if not 0 <= self.tau < np.inf:
            raise ConfigError(f"barrier parameter tau must be finite and >= 0, got {self.tau}")


class _Block:
    """A symmetric matrix with its Cholesky factor and log-determinant, and lazily its inverses.

    lsfa's one factored form of a symmetric positive-definite matrix: the
    iterates' L, S and Sigma, the sample covariance, and the covariances
    gaussian_nll and gaussian_kl read.  The factor C (M = C C^T, by potrf on
    M's lower triangle) is None when M is not positive definite, or has a
    NaN or an infinity there, which potrf carries into C's diagonal.  The
    log-determinant 2 sum log diag(C) is computed with the factor and
    doubles as its check: when potrf succeeds, it is finite exactly when
    C's diagonal is finite and positive.  Iterates that have a block in
    common hold the same _Block, so an inverse computed through one serves
    the other too.
    """

    def __init__(self, M: np.ndarray, name: str):
        self.M = M
        self.name = name
        chol, info = _potrf(M, lower=1, clean=1)
        self._logdet = 2.0 * float(np.log(chol.diagonal()).sum()) if info == 0 else np.nan
        self.chol = chol if np.isfinite(self._logdet) else None

    def factor(self) -> np.ndarray:
        """C, or InfeasiblePointError "<name> is not positive definite" when there is none."""
        if self.chol is None:
            raise InfeasiblePointError(f"{self.name} is not positive definite")
        return self.chol

    @property
    def logdet(self) -> float:
        """log det M = 2 sum log diag(C), or InfeasiblePointError as factor() when there is no C."""
        self.factor()
        return self._logdet

    @functools.cached_property
    def chol_inv(self) -> np.ndarray:
        """C^-1, lower triangular like C."""
        Li, = call_lapack("trtri", "a Cholesky factor", self.factor(), lower=1)
        return Li

    @functools.cached_property
    def inv(self) -> np.ndarray:
        """M^-1 = C^-T C^-1, exactly symmetric."""
        Li = self.chol_inv
        inv = Li.T @ Li
        return 0.5 * (inv + inv.T)


class Iterate:
    """A coordinate pair (ell, s) with cached matrices and factorizations.

    Building an iterate computes L, S, Sigma = L + S and attempts a Cholesky
    factorization of each; a failed factorization marks the point infeasible
    instead of raising, and reading that block's inverse or log-determinant
    raises InfeasiblePointError naming it ("L is not positive definite";
    require_feasible checks all three).  Inverses, and the generalized
    eigenbasis of (L, Sigma) the Newton step reads, are computed lazily
    because line-search trial points only ever need the log-determinants.
    The smooth objective f is memoized too (eval_f_at), and h_tau is
    computed from it and the cached log-determinants (eval_h_tau): an
    accepted trial point is evaluated by the line search, by its trace row
    and by the next step.

    A trial point that moves one block passes the iterate it moved from as
    `source`, with the other coordinate array as that iterate's own object
    (`s is source.s`, or `ell is source.ell`).  It then shares that block
    with `source` (its matrix, factor, inverse and log-determinant) instead
    of rebuilding it; Sigma is always built anew.  The coordinates must not
    be changed in place after construction, and neither may anything an
    iterate shares with another.
    """

    def __init__(self, ell: np.ndarray, s: np.ndarray, basis: SymmetricBasis,
                 source: "Iterate | None" = None):
        keep_L = source is not None and ell is source.ell
        keep_S = source is not None and s is source.s
        if not keep_L:
            ell = np.array(ell, dtype=float)
        if not keep_S:
            s = np.array(s, dtype=float)
        self.ell = ell
        self.s = s
        self.basis = basis
        self._L = source._L if keep_L else _Block(basis.vec_to_mat(ell), "L")
        self._S = source._S if keep_S else _Block(basis.vec_to_mat(s), "S")
        self._sigma = _Block(self._L.M + self._S.M, "Sigma")
        self.L, self.chol_L = self._L.M, self._L.chol
        self.S, self.chol_S = self._S.M, self._S.chol
        self.sigma, self.chol_sigma = self._sigma.M, self._sigma.chol
        self._f: dict[ProblemData, float] = {}

    @classmethod
    def from_matrices(cls, L: np.ndarray, S: np.ndarray, basis: SymmetricBasis) -> "Iterate":
        return cls(basis.mat_to_vec(L), basis.mat_to_vec(S), basis)

    @property
    def is_strictly_feasible(self) -> bool:
        """True when both L and S (hence Sigma) are positive definite."""
        return self.chol_L is not None and self.chol_S is not None and self.chol_sigma is not None

    def require_feasible(self) -> None:
        """Raise InfeasiblePointError naming the first of L, S and Sigma without a factor."""
        for block in (self._L, self._S, self._sigma):
            block.factor()

    @property
    def logdet_L(self) -> float:
        return self._L.logdet

    @property
    def logdet_S(self) -> float:
        return self._S.logdet

    @property
    def inv_L(self) -> np.ndarray:
        return self._L.inv

    @property
    def chol_inv_L(self) -> np.ndarray:
        """The inverse of L's lower Cholesky factor."""
        return self._L.chol_inv

    @functools.cached_property
    def pencil_eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, W): the generalized eigenbasis of (L, Sigma), from Sigma's held factor.

        L W = Sigma W diag(lam) and W^T Sigma W = I, lam ascending.  With
        Sigma = C C^T, the pencil has the eigenpairs of C^-1 L C^-T: the
        triangular inverse C^-1 the gradient formed Sigma^-1 from reduces it
        to a standard symmetric problem in two GEMMs, LAPACK syevd (which
        reads the lower triangle) gives C^-1 L C^-T = Q diag(lam) Q^T, and
        W = C^-T Q.
        """
        self.require_feasible()
        Li = self._sigma.chol_inv
        lam, Q = call_lapack("syevd", "C^-1 L C^-T, the pencil (L, Sigma) reduced",
                             Li @ self.L @ Li.T, compute_v=1, lower=1, overwrite_a=1)
        return lam, Li.T @ Q

    @property
    def inv_S(self) -> np.ndarray:
        return self._S.inv

    @property
    def inv_sigma(self) -> np.ndarray:
        return self._sigma.inv


def _smooth_f(L: np.ndarray, sigma: _Block, problem: ProblemData) -> float:
    """tr(L) + mu (<Sigma, Sigma_check^-1> - log det Sigma), given Sigma's factored block."""
    fit = float((sigma.M * problem.sigma_check_inv).sum()) - sigma.logdet
    return float(L.trace()) + problem.mu * fit


def eval_f(L: np.ndarray, S: np.ndarray, problem: ProblemData) -> float:
    """Smooth objective tr(L) + mu * {tr[(L+S) Sigma_check^{-1}] - log det(L+S)}.

    Returns +inf when L + S is not positive definite (boundary convention).
    L and S must be symmetric (symbasis.require_symmetric, else DataError);
    their symmetric parts are what is read.
    """
    L = require_symmetric(L, "L")
    block = _Block(L + require_symmetric(S, "S"), "Sigma")
    if block.chol is None:
        return np.inf
    return _smooth_f(L, block, problem)


def eval_f_at(iterate: Iterate, problem: ProblemData) -> float:
    """Smooth objective at an iterate, reusing its cached factorization.

    Sigma may be PD even when L or S alone is not, so this only requires the
    Sigma factorization.  The value is memoized on the iterate per problem,
    so a repeat call returns the identical float, and eval_h_tau reads it.
    """
    if iterate.chol_sigma is None:
        return np.inf
    f = iterate._f.get(problem)
    if f is None:
        f = iterate._f[problem] = _smooth_f(iterate.L, iterate._sigma, problem)
    return f


def eval_h_tau(iterate: Iterate, barrier: BarrierObjective) -> float:
    """Barrier objective f(L,S) - tau [log det L + log det S]; +inf off the cone.

    Computed at each call from the memoized f (eval_f_at) and the cached
    log-determinants, so a repeat call returns an equal float.
    """
    if not iterate.is_strictly_feasible:
        return np.inf
    logdet = iterate.logdet_L + iterate.logdet_S
    return eval_f_at(iterate, barrier.problem) - barrier.tau * logdet


def grad_h_tau(iterate: Iterate, barrier: BarrierObjective) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the barrier objective in basis coordinates.

    Formed on the m coordinates alone, never as a p x p matrix: the upper
    triangles of Sigma_check^-1, Sigma^-1, L^-1 and S^-1 are taken once
    each, combined as in the formulas of the module docstring (the identity
    as its coordinates, 1 on the diagonal and 0 off it) and scaled by
    vec_scale.  That is bit for bit sym_part_to_vec of the p x p gradients,
    because every inverse is exactly symmetric (symmetrized when formed), so
    the mean of two mirrored entries sym_part_to_vec takes is exact.

    Returns:
        (g_ell, g_s), each of length m.
    """
    problem, tau = barrier.problem, barrier.tau
    basis = iterate.basis
    upper = basis.upper_flat
    M = problem.mu * (problem.sigma_check_inv.take(upper) - iterate.inv_sigma.take(upper))
    g_ell = basis.identity_vec + M - tau * iterate.inv_L.take(upper)
    g_s = M - tau * iterate.inv_S.take(upper)
    return g_ell * basis.vec_scale, g_s * basis.vec_scale


def hessian_blocks(
    iterate: Iterate, barrier: BarrierObjective
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three distinct m x m blocks (H_ll, H_ls, H_ss) of the Hessian.

    A dense oracle: the Newton step applies the Hessian through
    hessian_vector_product and never forms these blocks.
    """
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
    basis = iterate.basis
    tau = barrier.tau
    X_l, X_s = basis.vec_to_mat(x_ell), basis.vec_to_mat(x_s)
    fit = _congruence(iterate.inv_sigma, X_l + X_s)
    fit *= barrier.problem.mu
    H_l = fit + tau * _congruence(iterate.inv_L, X_l)
    H_s = fit + tau * _congruence(iterate.inv_S, X_s)
    # both exactly symmetric, as sums of symmetrized congruences
    return basis.sym_part_to_vec(H_l), basis.sym_part_to_vec(H_s)


def hessian_h_tau(iterate: Iterate, barrier: BarrierObjective) -> np.ndarray:
    """Full symmetric 2m x 2m Hessian in the (ell, s) coordinate order."""
    H_ll, H_ls, H_ss = hessian_blocks(iterate, barrier)
    return np.block([[H_ll, H_ls], [H_ls.T, H_ss]])
