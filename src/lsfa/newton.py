"""Safeguarded Newton solver for the fixed-barrier subproblem.

Each iteration computes the working index set T from the current point,
holds the coordinates off T at d_{s_~T} = -s_{~T}, where the stationary
equation F(ell, s; T) = 0 fixes them, and takes a Newton step on the rest:
from d = (0, -s) with d_{s_T} = 0, refinement passes solve

    H[(ell, s_T), (ell, s_T)] e = [-g - H d]_(ell, s_T),   d_(ell, s_T) += e,

the reduced symmetric positive-definite system.  It then moves out of T
the off-diagonal coordinates whose Newton value falls below the keep floor
sqrt(2 gamma C), holds them at -s as well, and re-solves on the smaller
set with the same solver restricted to it.  It guards the direction with a
descent test on its joint slope, falls back to a scaled-gradient direction
when the test fails, then runs a backtracking line search.  The update is
modified so that the coordinates off the set the direction was solved on
take a unit step regardless of the accepted alpha, which zeroes them
exactly:

    ell(alpha) = ell + alpha d_ell,
    s(alpha)   = s + alpha d_s on T,   0 off T.

A trial point is accepted by one inequality, which line_search states:
sufficient decrease on h_tau (the published rule), with a credit of C for
each coordinate the step zeroes beyond those it admits.  The credit admits
steps that zero a small coordinate off T: such a step can raise h_tau by
more than the slope allows at every alpha while lowering the penalized
objective h_tau + C * nnz(s), the barrier form of the objective the solver
minimizes, and under the published rule alone the solve would abort there.

The reduced matrix of size m + |T| is never formed.  The ell block is
eliminated exactly: in the generalized eigenbasis W of (L, Sigma) its
inverse and its Schur complement apply in O(p^3), which leaves the |T| x |T|
Schur complement K on s_T.  The iterate holds W (Iterate.pencil_eigenbasis),
found as a standard symmetric eigenproblem through the triangular inverse of
Sigma's Cholesky factor that its gradient formed.  Every block of the
barrier Hessian is diagonal in that basis, the S-barrier too, since
S = Sigma - L makes W^T S W diagonal; so K = [Phi diag(delta) Phi^T]_TT,
with Phi the matrix of Z -> W Z W^T and one weight delta built from lam and
sig = diag(W^T S W) (see _SchurComplement).  Conjugate gradients solve with K through its
O(p^3) product, preconditioned by the Cholesky factor of the assembled K or
by K's diagonal, whichever the _ASSEMBLE_FLOPS comment picks.  Every
direction comes from refinement passes,
d += K^-1 (-g - H d) with the matrix-free Hessian-vector product (_refine):
two from d_{s_T} = 0 reach the accuracy of a dense solve when the exact
1e-12 is asked for, and one suffices at a forcing term.  A drop takes
one more pass, on T \\ D, through the same solver restricted to that set.
The dense Hessian (objective.hessian_blocks) remains as the test oracle.

Each solve runs only as tightly as the step needs: to the relative residual
1e-12 (_EXACT_RTOL) by default, and in solve_tau_min to the forcing term

    max(1e-12, min(1e-3, ||F||), min(0.1, 0.5 residual_tol / ||F||))

of the point the step starts from, ||F|| its normalized residual, with the
caps 1e-3 (_FORCING_CAP) and 0.1 (_FORCING_MAX).  A solve accurate to
O(||F||) keeps Newton's local quadratic rate (Dembo, Eisenstat and
Steihaug, "Inexact Newton methods", SIAM J. Numer. Anal. 1982); the cap
1e-3 keeps the early steps, whose predicted drops decide the support, on
the exact solve's path.  The last term is the safeguard against
oversolving (Eisenstat and Walker, SIAM J. Sci. Comput. 1996; Kelley,
Iterative Methods for Linear and Nonlinear Equations, 1995, eq. 6.20): the
solve ends once ||F|| <= residual_tol, so a step that starts a few times
above that rule needs its system solved only to about
residual_tol / (2 ||F||).  A point with F = 0 takes 0.1.  Stopped early
from zero, preconditioned CG still gives b^T x > 0, so a Newton direction
keeps a negative joint slope (see descent_safeguard).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import NumericalBreakdownError, require_count, require_positive
from .objective import (
    BarrierObjective,
    Iterate,
    _potrs,
    eval_h_tau,
    grad_h_tau,
    hessian_vector_product,
)
from .prox import StationarityResidual, complement, prox_keep_floor, stationarity_residual
from .trace import TraceRow

# The search's fixed constants: the descent safeguard's margin delta, the line
# search's sufficient-decrease fraction sigma, and the ratio beta by which the line
# search and both of the baseline's halving loops shrink their step.
SAFEGUARD_DELTA = 1e-4
DECREASE_SIGMA = 5e-5
BACKTRACK_BETA = 0.5
# The rounding of h_tau, relative to |h_tau|.  Evaluating it sums a trace, an
# inner product and the log-determinants of three factors: near a root, trial
# points whose true values differ by less than one ulp read from -56 to +92
# ulp off the start.  Where a descent direction's slope |slope|, the change of
# h_tau its full step predicts, is below this rounding, the line search
# accepts a rise within it instead (Hager and Zhang's approximate Armijo
# test).  At the default instance's |h_tau| ~ 4.8e3 it is 1.4e-10.
H_ROUNDING_RTOL = 128 * np.finfo(float).eps
# The most halvings a backtracking search takes after its first trial:
# BACKTRACK_BETA**50 ~ 9e-16 is at float64's relative spacing.
MAX_BACKTRACKS = 50


@dataclass
class NewtonParams:
    """Inner-solver parameters.

    gamma is the prox stepsize defining the working set; residual_tol the
    stopping threshold on ||F|| / sqrt(2m); max_inner_iters the step cap.
    The search's margin, decrease fraction, rounding allowance and halving
    ratio are the module constants SAFEGUARD_DELTA, DECREASE_SIGMA,
    H_ROUNDING_RTOL and BACKTRACK_BETA.
    """

    gamma: float
    residual_tol: float = 1e-4
    max_inner_iters: int = 200

    def __post_init__(self):
        require_positive(gamma=self.gamma, residual_tol=self.residual_tol)
        require_count(max_inner_iters=self.max_inner_iters)


@dataclass
class Direction:
    """Search direction on the working set T; the block off T equals -s there.

    cg_iterations counts the conjugate-gradient iterations spent on it,
    summed over its refinement passes (0 for the gradient fallback).
    """

    d_ell: np.ndarray
    d_s: np.ndarray
    kind: str  # "newton" | "gradient-fallback"
    T: np.ndarray
    cg_iterations: int = 0


# The constants of the forcing term, which the module docstring states.  A
# looser cap on the term that follows ||F|| changes the path: min(0.1,
# sqrt(||F||)) took the p = 40 dense start from 36 steps to 45 and to another
# optimum.
_EXACT_RTOL = 1e-12
_FORCING_CAP = 1e-3
_FORCING_MAX = 0.1


# Up to this many flops for the product F F^T that assembles the Schur
# complement (|T|^2 m), the Cholesky factor of the assembled K preconditions
# conjugate gradients, which then take one or two iterations; above it K is
# never formed and its diagonal preconditions them.  Measured, ms per
# newton_direction (best of five, each on a fresh copy of the iterate, so
# that every column includes the eigendecomposition), 1 BLAS thread, median
# over four iterates of the dense-start ipm_solve of the generator's default
# instance at that p (its first step and those a third, two thirds and all
# the way through), T the diagonal plus random off-diagonal coordinates,
# median of three runs; "assembled" forms and factors K and solves to 1e-12
# (two passes), and the CG columns use the diagonal, to 1e-12 and to the
# forcing term solve_tau_min passes at those iterates (1e-3 at the first,
# 1e-2 to 1e-1 at the other three, where the safeguard against oversolving
# sets it):
#
#     p   |T|   |T|^2 m   assembled   CG 1e-12   CG forcing
#     20  100   2.1e6        0.60       1.73        0.27
#     20  210   9.3e6        1.10       5.22        0.96
#     40  120   1.2e7        1.63       1.91        0.50
#     40  200   3.3e7        2.46       2.42        0.54
#     60  300   1.6e8        8.05       3.84        1.14
#
# Under the forcing term the diagonal wins at every row here, at p = 20 and
# |T| = 210 by 0.96-0.98 ms against 1.09-1.19 over the three runs, so the
# bound (every set at p = 20, |T| ~ 140 at p = 40) sits above the crossover.
# It counts only the flops of F F^T, not CG's iterations times its O(p^3)
# product.  On a p = 100 sparse start (|T| 100-193, up to 1.9e8) the
# diagonal takes sparse_init 0.15 s and ipm_solve after it 0.10-0.11 s,
# against 0.48-0.53 s and 0.81 s with every set assembled.
_ASSEMBLE_FLOPS = 1.6e7


class _SchurComplement:
    """The reduced Newton system, block-eliminated onto s_T.

    Write G(X) for the matrix of Z -> X Z X (SymmetricBasis.sym_kron) and
    A = mu G(Sigma^-1), B = tau G(L^-1), C = tau G(S^-1).  The reduced
    matrix is [[A + B, A[:, T]], [A[T, :], A_TT + C_TT]].  Eliminating d_ell
    leaves the |T| x |T| Schur complement K = E_TT + C_TT, with

        E = A - A (A + B)^-1 A = ((1/mu) G(Sigma) + (1/tau) G(L))^-1.

    Every block is diagonal in the generalized eigenbasis of (L, Sigma),
    which the iterate holds (Iterate.pencil_eigenbasis: LAPACK syevd on
    C^-1 L C^-T, W = C^-T Q, C^-1 the triangular inverse of Sigma's factor):
    with L W = Sigma W diag(lam) and W^T Sigma W = I, S = Sigma - L gives
    W^T S W = diag(sig), sig = 1 - lam, taken as diag(W^T S W).  With Phi
    the matrix of Z -> W Z W^T and V = Sigma W,

        E + C = Phi diag(delta) Phi^T,
        delta_kl = mu tau / (tau + mu lam_k lam_l) + tau / (sig_k sig_l),
        (A + B)^-1 X = V [(V^T X V) * r] V^T,   r_kl = lam_k lam_l / (mu lam_k lam_l + tau),

    so K = [Phi diag(delta) Phi^T]_TT and every operator but K^-1 applies
    in O(p^3).  K is solved by conjugate gradients on the product

        K x = [W (delta o (W^T X W)) W^T]_T,   X = vec^-1(x),

    four p x p GEMMs each (o the entrywise product), to the relative
    residual rtol that solve is given (_cg).  The preconditioner is the one
    the _ASSEMBLE_FLOPS comment picks, and iterative says which: K's
    diagonal, built in O(|T| p^2) (_diagonal) without forming K, or the
    Cholesky factor of K = F F^T, with F = Phi_T sqrt(delta) the rows T of
    sym_kron(W) scaled by column, which LAPACK potrs solves with.

    X is scattered into a p x p buffer at the flat positions of T's
    coordinates (_scatter), and the symmetric part of the result gathered
    from them in one take (_gather; _on keeps those positions and the
    buffer per working set), with no m-length vector and no symmetry check.
    cg_iterations counts the iterations so far.
    """

    def __init__(self, iterate: Iterate, T: np.ndarray, barrier: BarrierObjective):
        self.basis = basis = iterate.basis
        self._on(T)
        self.mu = mu = barrier.problem.mu
        tau = barrier.tau
        lam, W = iterate.pencil_eigenbasis
        self.W, self.V = W, iterate.sigma @ W
        # the S-barrier's weight tau / (sig_k sig_l) is u u^T, u = sqrt(tau) / sig, with
        # sig = diag(W^T S W), not 1 - lam, which cancels where S is nearly singular
        u = np.sqrt(tau) / (W * (iterate.S @ W)).sum(axis=0)
        lam2 = np.multiply.outer(lam, lam)
        self.r = lam2 / (mu * lam2 + tau)
        self.delta = (mu * tau) / (tau + mu * lam2) + np.multiply.outer(u, u)
        self.iterative = len(T) ** 2 * basis.m > _ASSEMBLE_FLOPS
        self.cg_iterations = 0
        if self.iterative:
            self.diag = self._diagonal()
        else:
            F = basis.sym_kron(W, rows=T)
            F *= np.sqrt(self.delta[basis.rows, basis.cols])
            self.K = F @ F.T
            self.cho = self._factor()

    def restrict(self, keep: np.ndarray) -> _SchurComplement:
        """The same system on T[keep], with K[keep, keep] refactored or K's diagonal on it.

        The copy carries cg_iterations on, so it counts the passes of both.
        """
        sub = copy.copy(self)
        sub._on(self.T[keep])
        if self.iterative:
            sub.diag = self.diag[keep]
        else:
            sub.K = self.K[np.ix_(keep, keep)]
            sub.cho = sub._factor()
        return sub

    def _on(self, T: np.ndarray) -> None:
        """Set the working set T with the flat positions and scales of its coordinates.

        Also a p x p buffer that _scatter writes T's entries into; the
        entries off T are never written, so they stay zero.
        """
        basis = self.basis
        self.T = T
        self.up_T, self.lo_T = basis.upper_flat[T], basis.lower_flat[T]
        self.flat_T = np.concatenate([self.up_T, self.lo_T])
        self.scale_T = basis.vec_scale[T]
        # 0.5 s_a is exact, so (M_ij + M_ji) (0.5 s_a) rounds as 0.5 (M_ij + M_ji) s_a
        self.half_scale_T = 0.5 * self.scale_T
        self._X = np.zeros((basis.p, basis.p))

    def _gather(self, M: np.ndarray) -> np.ndarray:
        """The coordinates on T of M's symmetric part, basis.sym_part_to_vec(M)[T]."""
        both = M.take(self.flat_T)
        n = len(self.T)
        return (both[:n] + both[n:]) * self.half_scale_T

    def _factor(self):
        try:
            # K = F F^T is exactly symmetric, and finite because W and delta are;
            # the factor is lower, and _cg solves with it by potrs
            return scipy.linalg.cho_factor(self.K, lower=True, check_finite=False)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"Schur complement of the reduced Newton matrix, of size {len(self.T)}, "
                f"is not positive definite: {exc}"
            ) from exc

    def _diagonal(self) -> np.ndarray:
        """K's diagonal on T in O(|T| p^2).

        For a coordinate a = {i, j}, E_a = c_a (e_i e_j^T + e_j e_i^T) and
        the rows w_i of W give W^T E_a W = c_a (w_i w_j^T + w_j w_i^T), so

            K_aa = 2 c_a^2 ((w_i^2)^T delta (w_j^2) + (w_i o w_j)^T delta (w_i o w_j)),

        with 2 c_a^2 = 1 off the diagonal and 1/2 on it, where both terms agree.
        """
        basis, W = self.basis, self.W
        W2 = W * W
        P = W.take(basis.rows[self.T], axis=0)
        P *= W.take(basis.cols[self.T], axis=0)
        diag = (W2 @ self.delta @ W2.T).take(self.up_T) + ((P @ self.delta) * P).sum(axis=1)
        diag *= np.where(basis.off_diag[self.T], 1.0, 0.5)
        return diag

    def _scatter(self, x: np.ndarray) -> np.ndarray:
        """The p x p matrix of coordinates x on T and 0 off it, basis.vec_to_mat of x embedded.

        It is the working set's buffer, valid until the next call.
        """
        flat = self._X.ravel()
        entries = x / self.scale_T
        flat[self.up_T] = entries
        flat[self.lo_T] = entries
        return self._X

    def _product(self, x: np.ndarray) -> np.ndarray:
        """K x on T in four p x p GEMMs, scattered into and gathered from p x p arrays on T."""
        W = self.W
        Y = W.T @ self._scatter(x) @ W
        Y *= self.delta
        return self._gather(W @ Y @ W.T)

    def _cg(self, b: np.ndarray, rtol: float) -> np.ndarray:
        """K^-1 b by conjugate gradients from zero, preconditioned by K's diagonal or factor.

        Stops at ||K x - b||^2 <= (rtol ||b||)^2, rtol the exact 1e-12 or the
        step's forcing term (see the module docstring).  Stopped early from
        zero, PCG still gives b^T x = x^T K x > 0.  Adds its iterations to
        cg_iterations.  Nonpositive curvature, or no convergence within
        2 |T| iterations, raises NumericalBreakdownError.
        """
        x, res = np.zeros_like(b), b.copy()
        tol2 = (rtol * np.linalg.norm(b)) ** 2
        rz = d = None
        for k in range(2 * len(b) + 1):
            if res @ res <= tol2:
                self.cg_iterations += k
                return x
            if k == 2 * len(b):
                reason = "no convergence"
                break
            z = res / self.diag if self.iterative else _potrs(self.cho, res, lower=1)[0]
            rz, rz_old = res @ z, rz
            d = z if k == 0 else z + (rz / rz_old) * d
            q = self._product(d)
            curvature = d @ q
            if not curvature > 0:
                reason = f"nonpositive curvature {curvature:.3e}"
                break
            alpha = rz / curvature
            x += alpha * d
            res -= alpha * q
        raise NumericalBreakdownError(
            f"conjugate gradients on the Schur complement of size {len(b)} stopped after "
            f"{k} iterations at relative residual "
            f"{np.linalg.norm(res) / np.linalg.norm(b):.3e}, asked for {rtol:.3e}: {reason}"
        )

    def solve(self, r_ell: np.ndarray, r_T: np.ndarray,
              rtol: float = _EXACT_RTOL) -> tuple[np.ndarray, np.ndarray]:
        """(d_ell, d_T) with K [d_ell; d_T] = [r_ell; r_T] for the reduced matrix K on T.

        d_T solves the Schur system to the relative residual rtol, and d_ell
        is exact given d_T.
        """
        W, V = self.W, self.V
        # Y: (A + B)^-1 r_ell = V Y V^T
        Y = V.T @ self.basis.vec_to_mat(r_ell) @ V
        Y *= self.r
        # [A (A + B)^-1 r_ell]_T, with A V Y V^T = mu W Y W^T
        d_T = self._cg(r_T - self.mu * self._gather(W @ Y @ W.T), rtol)
        # d_ell = (A + B)^-1 (r_ell - A d_s), d_s = d_T on T and 0 off it,
        # where V^T A X V = mu W^T X W
        Y -= self.mu * self.r * (W.T @ self._scatter(d_T) @ W)
        return self.basis.sym_part_to_vec(V @ Y @ V.T), d_T


def _refine(solver: _SchurComplement, iterate: Iterate, barrier: BarrierObjective,
            grad: tuple[np.ndarray, np.ndarray], d_ell: np.ndarray, d_s: np.ndarray,
            rtol: float) -> None:
    """One refinement pass, in place: d += solver.solve(-g - H d, rtol) on the rows (ell, solver.T).

    The coordinates off solver.T are held where d has them.  The product
    H d is skipped while d = 0: a pass from zero is a plain solve.
    """
    g_ell, g_s = grad
    r_ell, r_s = -g_ell, -g_s
    if d_ell.any() or d_s.any():
        h_ell, h_s = hessian_vector_product(iterate, barrier, d_ell, d_s)
        r_ell, r_s = r_ell - h_ell, r_s - h_s
    e_ell, e_T = solver.solve(r_ell, r_s[solver.T], rtol)
    d_ell += e_ell
    d_s[solver.T] += e_T


def newton_direction(
    iterate: Iterate,
    T: np.ndarray,
    barrier: BarrierObjective,
    grad: tuple[np.ndarray, np.ndarray] | None = None,
    keep_floor: float = 0.0,
    rtol: float = _EXACT_RTOL,
) -> Direction:
    """Solve the reduced Newton system of size m + |T| by its Schur complement on s_T.

    The direction starts from its held set: d_ell = 0 and d_s = -s, with
    d_s = 0 on T.  Refinement passes (_refine) then solve for the rest, each
    solving the Schur system by conjugate gradients to the relative
    residual rtol.  Asked for the exact 1e-12 there are two: a solve, then
    one step of iterative refinement that brings it to the accuracy of a
    dense solve; at a looser forcing term one pass suffices.  A pass from
    d = 0, where s_{~T} = 0, is a plain solve of -g.  The Schur complement
    is positive definite because the reduced matrix is a principal
    submatrix of the positive definite Hessian; a failed eigendecomposition
    or factorization, and nonpositive curvature or no convergence in
    conjugate gradients, raise NumericalBreakdownError.

    The off-diagonal coordinates D of T whose predicted value |s_i + d_i|
    falls below keep_floor (the prox's sqrt(2 gamma C); the default 0.0
    drops nothing) leave the working set in the same step: they join the
    held set with d_D = -s_D, and one more pass re-solves on T \\ D with
    the solver restricted to that set, which refactors the principal block
    of the K assembled for T when its factor preconditions.  The returned
    Direction names the set it was solved on.
    """
    g_ell, g_s = grad if grad is not None else grad_h_tau(iterate, barrier)
    schur = _SchurComplement(iterate, T, barrier)
    d_ell, d_s = np.zeros(iterate.basis.m), -iterate.s
    d_s[T] = 0.0
    for _ in range(2 if rtol <= _EXACT_RTOL else 1):
        _refine(schur, iterate, barrier, (g_ell, g_s), d_ell, d_s, rtol)
    drop = iterate.basis.off_diag[T] & (np.abs(iterate.s[T] + d_s[T]) < keep_floor)
    if drop.any():
        d_s[T[drop]] = -iterate.s[T[drop]]
        schur = schur.restrict(~drop)
        _refine(schur, iterate, barrier, (g_ell, g_s), d_ell, d_s, rtol)
    return Direction(d_ell=d_ell, d_s=d_s, kind="newton", T=schur.T, cg_iterations=schur.cg_iterations)


def descent_safeguard(
    direction: Direction,
    g_s: np.ndarray,
    delta: float,
    gamma: float,
    *,
    g_ell: np.ndarray | None = None,
) -> bool:
    """True when <g_{s_T}, d_{s_T}> <= -delta ||d_s||^2 + ||s_{~T}||^2 / (4 gamma).

    T is direction.T, and s_{~T} is read off the direction, which holds
    d_{s_~T} = -s_{~T}.  ||d_s|| is the norm of the full s-block of the
    direction, including the off-T part.  That is the published test.  With
    g_ell it is the joint test on the whole direction,

        <g_ell, d_ell> + <g_{s_T}, d_{s_T}> <= -delta (||d_ell||^2 + ||d_s||^2)
                                               + ||s_{~T}||^2 / (4 gamma).

    The s-block test rejects Newton directions that move s uphill while ell
    compensates; with s_{~T} = 0 the joint slope of a Newton direction is
    -r^T K^-1 r < 0, so the joint test accepts them.  Solved inexactly, with
    d_ell eliminated exactly and conjugate gradients stopped early from zero
    on the Schur system K_s x = b, the slope is -(r_ell^T P^-1 r_ell + b^T x)
    with P the ell block and b^T x = x^T K_s x > 0, still negative.
    """
    T, d_s = direction.T, direction.d_s
    held = d_s[complement(T, len(d_s))]
    lhs = float(g_s[T] @ d_s[T])
    norm2 = float(d_s @ d_s)
    if g_ell is not None:
        lhs += float(g_ell @ direction.d_ell)
        norm2 += float(direction.d_ell @ direction.d_ell)
    rhs = -delta * norm2 + float(held @ held) / (4.0 * gamma)
    return lhs <= rhs


def fallback_direction(iterate: Iterate, g_ell: np.ndarray, g_s: np.ndarray, T: np.ndarray) -> Direction:
    """Scaled-gradient direction: -s held off T, as in newton_direction, and -g on (ell, s_T)."""
    d_s = -iterate.s
    d_s[T] = -g_s[T]
    return Direction(d_ell=-g_ell, d_s=d_s, kind="gradient-fallback", T=T)


@dataclass
class LineSearchResult:
    iterate: Iterate | None  # None when no trial point passed
    n_backtracks: int  # trials rejected: MAX_BACKTRACKS + 1, all of them, when it failed

    @property
    def success(self) -> bool:
        return self.iterate is not None

    @property
    def alpha(self) -> float:
        """The accepted step BACKTRACK_BETA**n_backtracks, or 0.0 when no trial passed."""
        return BACKTRACK_BETA**self.n_backtracks if self.success else 0.0


def line_search(
    iterate: Iterate,
    direction: Direction,
    barrier: BarrierObjective,
    grad: tuple[np.ndarray, np.ndarray] | None = None,
) -> LineSearchResult:
    """Backtracking search over alpha = beta^v with the modified update on T = direction.T.

    Each trial point moves s on T by alpha d_s and zeroes it off T.  It is
    accepted when h_tau(trial) <= h_tau + margin + C max(0, nnz(s) - nnz(trial s)),
    margin = sigma alpha slope (sigma DECREASE_SIGMA, beta BACKTRACK_BETA):
    sufficient decrease on h_tau + C nnz(.) for a trial that zeroes more
    coordinates than it admits, else on h_tau alone, the published test bit
    for bit.  The slope uses the full concatenated gradient and direction,
    including the off-T block that takes a unit step regardless of alpha.
    Infeasible trial points evaluate to +inf and fail.

    Near a root the slope can fall below the rounding of h_tau itself, and
    the test would then decide on the last bits of a direction.  So when the
    slope is negative and |slope| is below H_ROUNDING_RTOL |h_tau|, the
    margin is instead a rise of at most that rounding (Hager and Zhang's
    approximate Armijo test, SIAM J. Optim. 2005).  An ascent or zero slope
    never gets the allowance, nor does a slope above the rounding whose
    required decrease sigma |slope| is below it: there the rounding does
    not hide the decrease the step predicts.
    """
    g_ell, g_s = grad if grad is not None else grad_h_tau(iterate, barrier)
    h0 = eval_h_tau(iterate, barrier)
    C = barrier.problem.C
    nnz0 = np.count_nonzero(iterate.s)
    slope = float(g_ell @ direction.d_ell + g_s @ direction.d_s)
    in_T = np.zeros(iterate.basis.m, dtype=bool)
    in_T[direction.T] = True
    rounding = H_ROUNDING_RTOL * abs(h0)
    below_rounding = slope < 0 and -slope < rounding

    for v in range(MAX_BACKTRACKS + 1):
        alpha = BACKTRACK_BETA**v
        trial_s = np.where(in_T, iterate.s + alpha * direction.d_s, 0.0)
        trial = Iterate(iterate.ell + alpha * direction.d_ell, trial_s, iterate.basis)
        h_trial = eval_h_tau(trial, barrier)
        margin = rounding if below_rounding else DECREASE_SIGMA * alpha * slope
        if h_trial <= h0 + margin + C * max(0, nnz0 - np.count_nonzero(trial_s)):
            return LineSearchResult(iterate=trial, n_backtracks=v)
    return LineSearchResult(iterate=None, n_backtracks=MAX_BACKTRACKS + 1)


@dataclass
class InnerSolveResult:
    """Outcome of one fixed-barrier solve."""

    iterate: Iterate
    status: str  # "converged" | "iteration-cap" | "line-search-failure" | "stalled"
    rows: list[TraceRow]
    residual: StationarityResidual  # at `iterate`

    @property
    def n_iters(self) -> int:
        return len(self.rows)


# A fixed-barrier step: (iterate, its gradient (g_ell, g_s), its residual) -> the
# accepted iterate with, by name, the TraceRow columns that neither
# TraceRow.accepted nor the loop fills, or the status that ends the solve.
Step = Callable[[Iterate, tuple[np.ndarray, np.ndarray], StationarityResidual],
                tuple[Iterate, dict] | str]


# Measured on cv_p20's C=1 sparse starts (seed 7): fold 0 settles into a
# period-3 orbit (supports 30/29/29) by step ~30 and repeats h_tau bit for
# bit until the 200-step cap; fold 1 stops moving at step 13, and then takes
# steps at alpha 1e-11 to 4e-15 with h_tau and the residual unchanged.
# Criterion 9's C=1, mu=300 sparse start settles into a period-4 orbit
# (supports 75/75/75/76), which a comparison with only the last three states
# misses; so the guard compares with every state the solve has visited.  A
# looser rule, the same support with h_tau no lower, fires while Newton still
# converges: near a root, where h_tau stops falling at rounding level while
# the residual still falls, and on a 45 -> 44 -> 45 support transient that
# raises h_tau at level 5 of the p=10 fit of generator seed 4 (mu=300),
# which then converges in 14 steps.
SETTLE_RTOL = 1e-8


def settle_guard(step: Step, barrier: BarrierObjective) -> Step:
    """`step`, returning "stalled" instead of stepping once the solve has settled.

    Each point a step starts from, the solve's start and then every
    accepted iterate, is compared with the points recorded before it, then
    recorded.  It has settled when it repeats one of them (the same support,
    and h_tau and the normalized residual equal to SETTLE_RTOL relative) at
    a penalized merit h_tau + C nnz(s) no higher than that of any point
    recorded since: F = 0 is out of reach at this gamma, where the prox
    brings in coordinates that the keep floor pins at zero or drops again.
    A cycle of any period thus ends on its lowest-merit point, and a step
    that does not move ends the solve at once: one that returns the start
    leaves one trace row.  The guard runs before a step, so a solve that
    settles at its last allowed step ends "iteration-cap" instead.  The
    visits are kept by the support's bytes, so a point compares only with
    those of its own support.  The guard reads only h_tau, computed from
    the memoized f, and the residual the loop passes in.
    """
    visits: dict[bytes, list[tuple[int, float, float]]] = {}  # support -> (index, h_tau, residual)
    merits: list[float] = []  # of the recorded points, in order

    def guarded(it, g, res):
        support, h, residual = it.s != 0, eval_h_tau(it, barrier), res.norm_normalized
        merit = h + barrier.problem.C * np.count_nonzero(support)
        same_support = visits.setdefault(support.tobytes(), [])
        if any(math.isclose(h, h_prev, rel_tol=SETTLE_RTOL)
               and math.isclose(residual, residual_prev, rel_tol=SETTLE_RTOL)
               and merit <= min(merits[k:])
               for k, h_prev, residual_prev in same_support):
            return "stalled"
        same_support.append((len(merits), h, residual))
        merits.append(merit)
        return step(it, g, res)

    return guarded


def fixed_barrier_loop(
    init: Iterate,
    barrier: BarrierObjective,
    step: Step,
    *,
    gamma: float,
    residual_tol: float,
    max_iters: int,
    outer_index: int = 0,
) -> InnerSolveResult:
    """Take `step` (see Step) from a strictly feasible `init` until the solve ends.

    The loop every fixed-barrier solver shares, so that their iteration
    counts and traces compare directly.  It owns two rules, tested after
    each step: the residual rule ||F|| / sqrt(2m) <= residual_tol at the
    prox stepsize gamma ("converged"), and the step cap max_iters
    ("iteration-cap").  So every solve takes at least one step: a warm start
    that already meets the rule is still corrected once, and every barrier
    level leaves a trace row.  A step that returns a status ends the solve
    with it.  Each accepted step appends one trace row stamped with
    `outer_index` and the barrier level; the returned iterate is the last row's.
    """
    init.require_feasible()

    it = init
    g = grad_h_tau(it, barrier)
    res = stationarity_residual(it, barrier, gamma, grad=g)
    rows: list[TraceRow] = []
    status = "iteration-cap"
    for inner_iter in range(1, max_iters + 1):
        taken = step(it, g, res)
        if isinstance(taken, str):
            status = taken
            break
        it, step_fields = taken
        g = grad_h_tau(it, barrier)
        res = stationarity_residual(it, barrier, gamma, grad=g)
        rows.append(TraceRow.accepted(it, barrier, outer_iter=outer_index, inner_iter=inner_iter,
                                      residual_normalized=res.norm_normalized, **step_fields))
        if res.norm_normalized <= residual_tol:
            status = "converged"
            break

    return InnerSolveResult(iterate=it, status=status, rows=rows, residual=res)


def solve_tau_min(
    init: Iterate,
    barrier: BarrierObjective,
    params: NewtonParams,
    outer_index: int = 0,
) -> InnerSolveResult:
    """Run the safeguarded Newton iteration in the fixed-barrier loop.

    Each step solves for the Newton direction on the working set, dropping
    from it the coordinates whose Newton value falls below the keep floor
    sqrt(2 gamma C); replaces the direction by the gradient fallback when
    the joint descent test rejects it; and line-searches along the result
    on the set the direction was solved on, zeroing the dropped coordinates
    at every alpha.  When no alpha passes, it searches the same direction
    again with its set widened back to the working set, so that the dropped
    coordinates move with alpha, toward zero at alpha = 1: far from the
    solution a full-step prediction can name coordinates whose removal no
    step size pays for.  When that fails too, the step ends the solve
    ("line-search-failure").

    Both the drop and the joint test deviate from the published rules,
    which drop nothing and test the s block alone: the s-block test rejects
    descent directions that move s uphill while ell compensates, and
    without the drop a step overshoots to below the optimum on the smaller
    support, so that h_tau must rise when the prox later drops the
    coordinate.

    The step runs under settle_guard, so a solve whose iterates settle
    short of F = 0 ends "stalled" (see settle_guard for the rule).

    Conjugate gradients solve each Newton system to the forcing term of the
    point the step starts from (see the module docstring).  The trace row
    counts their iterations and the relative residual they were asked for
    (cg_rtol), also when the safeguard rejects the direction.
    """
    keep_floor = prox_keep_floor(params.gamma, barrier.problem.C)

    def newton_step(it, g, res):
        f = res.norm_normalized
        rtol = max(_EXACT_RTOL, min(_FORCING_CAP, f),
                   _FORCING_MAX if f == 0 else min(_FORCING_MAX, 0.5 * params.residual_tol / f))
        direction = newton_direction(it, res.T, barrier, grad=g, keep_floor=keep_floor, rtol=rtol)
        cg = dict(cg_iterations=direction.cg_iterations, cg_rtol=rtol)
        if not descent_safeguard(direction, g[1], SAFEGUARD_DELTA, params.gamma, g_ell=g[0]):
            direction = fallback_direction(it, g[0], g[1], res.T)
        ls = line_search(it, direction, barrier, grad=g)
        rejected = ls.n_backtracks
        if not ls.success and len(direction.T) < len(res.T):
            # zeroing the predicted drops at every alpha failed; let them
            # shrink with alpha instead, and the prox drop them later
            direction = replace(direction, T=res.T)
            ls = line_search(it, direction, barrier, grad=g)
            rejected += ls.n_backtracks
        if not ls.success:
            return "line-search-failure"
        return ls.iterate, dict(step_alpha=ls.alpha, direction_kind=direction.kind,
                                working_set_size=len(direction.T), n_backtracks=rejected, **cg)

    return fixed_barrier_loop(init, barrier, settle_guard(newton_step, barrier), gamma=params.gamma,
                              residual_tol=params.residual_tol,
                              max_iters=params.max_inner_iters, outer_index=outer_index)
