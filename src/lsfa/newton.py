"""Safeguarded Newton solver for the fixed-barrier subproblem.

Each iteration computes the working index set T from the current point,
solves the reduced symmetric positive-definite system

    H[(ell, s_T), (ell, s_T)] d = [ H[ell, s_~T] s_~T - g_ell ;
                                    H[s_T, s_~T] s_~T - g_{s_T} ]

(the back-substitution of the full Newton system, using d_{s_~T} = -s_{~T}),
moves out of T the off-diagonal coordinates whose Newton value falls below
the keep floor sqrt(2 gamma C) and re-solves on the smaller set through a
pinned view of the same factorization, guards the direction with a descent
test on its joint slope and falls back to a scaled-gradient direction when
the test fails, then runs a backtracking line search.  The update is
modified so that the coordinates off the set the direction was solved on
take a unit step regardless of the accepted alpha, which zeroes them
exactly:

    ell(alpha) = ell + alpha d_ell,
    s(alpha)   = s + alpha d_s on T,   0 off T.

A trial point is accepted when it makes sufficient decrease on h_tau alone
(the published rule) or on the penalized merit h_tau + C * nnz(s), the
barrier form of the objective the solver minimizes.  The second test admits
steps that zero a small coordinate off T: such a step can raise h_tau by
more than the slope allows at every alpha while lowering the penalized
objective, and under the published rule alone the solve would abort there.
The first test admits steps that bring coordinates into the support, which
the penalized merit charges C each however small alpha is.  Trial points
outside the positive-definite cone evaluate to +inf and fail both tests.

The reduced matrix of size m + |T| is never formed.  The ell block is
eliminated exactly: in the generalized eigenbasis of (L, Sigma) its inverse
and its Schur complement apply in O(p^3), so only the |T| x |T| Schur
complement on s_T is assembled, from the rows T of a congruence matrix or
from an m x m pair Gram, whichever costs less at that |T|, and
Cholesky-factorized (see _SchurComplement); its gathered blocks are formed
only in the upper triangle that the factorization reads.  Every direction
comes from one refinement pass, d += K^-1 (r - H d) with the matrix-free
Hessian-vector product (_refine): two from zero on T reach the accuracy of
a dense solve, and a drop takes one more through a pinned view of the same
factor (_Pinned).  The dense Hessian (objective.hessian_blocks) remains as
the test oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, InfeasiblePointError, NumericalBreakdownError, require_positive
from .objective import (
    BarrierObjective,
    Iterate,
    eval_h_tau,
    grad_h_tau,
    hessian_vector_product,
)
from .prox import StationarityResidual, complement, stationarity_residual
from .trace import TraceRow


@dataclass
class NewtonParams:
    """Inner-solver parameters.

    gamma is the prox stepsize defining the working set; delta the safeguard
    margin; sigma and beta the sufficient-decrease fraction and backtracking
    ratio; residual_tol the stopping threshold on ||F|| / sqrt(2m).
    """

    gamma: float
    delta: float = 1e-4
    sigma: float = 5e-5
    beta: float = 0.5
    residual_tol: float = 1e-4
    max_inner_iters: int = 200
    max_backtracks: int = 50

    def __post_init__(self):
        require_positive(gamma=self.gamma, delta=self.delta, residual_tol=self.residual_tol,
                         max_inner_iters=self.max_inner_iters, max_backtracks=self.max_backtracks)
        if not 0 < self.sigma < 0.5:
            raise ConfigError(f"sigma must be in (0, 1/2), got {self.sigma}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")


@dataclass
class Direction:
    """Search direction on the working set T; the block off T equals -s there."""

    d_ell: np.ndarray
    d_s: np.ndarray
    kind: str  # "newton" | "gradient-fallback"
    T: np.ndarray


class _SchurComplement:
    """The reduced Newton system, block-eliminated onto s_T.

    Write G(X) for the matrix of Z -> X Z X (SymmetricBasis.sym_kron) and
    A = mu G(Sigma^-1), B = tau G(L^-1), C = tau G(S^-1).  The reduced
    matrix is [[A + B, A[:, T]], [A[T, :], A_TT + C_TT]].  Eliminating d_ell
    leaves the |T| x |T| Schur complement E_TT + C_TT, with

        E = A - A (A + B)^-1 A = ((1/mu) G(Sigma) + (1/tau) G(L))^-1.

    The generalized eigenpairs L W = Sigma W diag(lam), W^T Sigma W = I,
    diagonalize both maps: with Phi the matrix of Z -> W Z W^T and V = Sigma W,

        E = Phi diag(delta) Phi^T,   delta_kl = mu tau / (tau + mu lam_k lam_l),
        (A + B)^-1 X = V [(V^T X V) * r] V^T,   r_kl = lam_k lam_l / (mu lam_k lam_l + tau),

    and every operator but E_TT applies in O(p^3).  E_TT takes the cheaper
    of two products:

    - F F^T with F = Phi_T sqrt(delta), the rows T of sym_kron(W): |T|^2 m
      flops, O(p^6) for a dense working set;
    - a gather (SymmetricBasis.pair_gram_block) from the pair Gram

          M = P delta P^T,   P[q, k] = W[x_q, k] W[y_q, k],

      an m x m matrix over the pairs q = {x_q, y_q}: 2 m^2 p flops, O(p^5).

    The first is used while |T|^2 < m p, where it does under half the pair
    Gram's flops; its gather of Phi_T is memory-bound, and at p = 40 and 60
    the two took equal time at |T|^2 between 0.3 and 0.5 times 2 m p.  The
    sparse working sets of a sparse start (|T| about 2p) stay on the first,
    the dense ones of a dense start (|T| near m) on the second.
    C_TT = tau G(S^-1)[T, T] is a block of sym_kron.

    The Cholesky factorization reads only the upper triangle of K = E_TT +
    C_TT, so both gathers (the pair-Gram block and C_TT) form only that
    triangle, with zeros below it; the Phi_T product forms both.  Each entry
    comes from the same arithmetic as in the full block, so the factor is
    the same bit for bit.
    """

    def __init__(self, iterate: Iterate, T: np.ndarray, barrier: BarrierObjective):
        self.basis = basis = iterate.basis
        self.T = T
        self.mu = mu = barrier.problem.mu
        tau = barrier.tau
        try:
            lam, W = scipy.linalg.eigh(iterate.L, iterate.sigma)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"generalized eigendecomposition of (L, Sigma) failed: {exc}"
            ) from exc
        self.W, self.V = W, iterate.sigma @ W
        lam2 = np.multiply.outer(lam, lam)
        self.r = lam2 / (mu * lam2 + tau)
        self.cho = None
        if len(T) == 0:
            return
        delta = (mu * tau) / (tau + mu * lam2)
        if len(T) ** 2 < basis.m * basis.p:
            F = basis.sym_kron(W, rows=T)
            F *= np.sqrt(delta[basis.rows, basis.cols])
            K = F @ F.T
        else:
            P = W[basis.rows] * W[basis.cols]
            K = basis.pair_gram_block((P @ delta) @ P.T, rows=T, cols=T, upper=True)
        C_TT = basis.sym_kron(iterate.inv_S, rows=T, cols=T, upper=True)
        C_TT *= tau
        K += C_TT
        try:
            # K's upper triangle holds the Schur complement; K.T is the
            # Fortran-ordered array whose lower triangle LAPACK factors in
            # place.  It is finite because W, delta and S^-1 are.
            self.cho = scipy.linalg.cho_factor(
                K.T, lower=True, overwrite_a=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"Schur complement of the reduced Newton matrix, of size {len(T)}, "
                f"is not positive definite: {exc}"
            ) from exc

    def _vec(self, M: np.ndarray) -> np.ndarray:
        return self.basis.mat_to_vec(0.5 * (M + M.T))

    def solve(self, r_ell: np.ndarray, r_T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_ell, d_T) with K [d_ell; d_T] = [r_ell; r_T] for the reduced matrix K."""
        W, V, T, basis = self.W, self.V, self.T, self.basis
        # Y: (A + B)^-1 r_ell = V Y V^T
        Y = V.T @ basis.vec_to_mat(r_ell) @ V
        Y *= self.r
        d_T = np.zeros(0)
        if self.cho is not None:
            # [A (A + B)^-1 r_ell]_T, with A V Y V^T = mu W Y W^T
            b_T = r_T - self.mu * self._vec(W @ Y @ W.T)[T]
            d_T = scipy.linalg.cho_solve(self.cho, b_T, check_finite=False)
            # d_ell = (A + B)^-1 (r_ell - A d_s), d_s = d_T on T and 0 off it,
            # where V^T A X V = mu W^T X W
            d_s = np.zeros(basis.m)
            d_s[T] = d_T
            Y -= self.mu * self.r * (W.T @ basis.vec_to_mat(d_s) @ W)
        return self._vec(V @ Y @ V.T), d_T


class _Pinned:
    """A pinned view of the solver for T: the reduced system on T \\ D, D = T[pos].

    With K the reduced matrix on T and E_D its columns D, the system on
    T \\ D with x_D = 0 is the one on T with free multipliers lam in the rows D:

        K x = r + E_D lam,   x_D = 0,

    so x = K^-1 (r + E_D lam) = K^-1 r + Z lam with Z = K^-1 E_D, and x_D = 0
    gives Z_DD lam = -(K^-1 r)_D.  Z_DD is the block D of the inverse Schur
    complement: |D| cho_solve columns with the factor held for T.  The view
    keeps T and ignores the rows D of r, so a refinement pass through it from
    any d with d_D = -s_D lands, in exact arithmetic, on the direction solved
    on T \\ D: its correction is the solution of this system.
    """

    def __init__(self, schur: _SchurComplement, pos: np.ndarray):
        self.schur, self.pos, self.T = schur, pos, schur.T
        unit = np.zeros((len(self.T), len(pos)))
        unit[pos, np.arange(len(pos))] = 1.0
        self.Z_DD = scipy.linalg.cho_solve(schur.cho, unit, check_finite=False)[pos]

    def solve(self, r_ell: np.ndarray, r_T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x_ell, x_T) = K^-1 (r + E_D lam) with x_D = 0."""
        x_ell, x_T = self.schur.solve(r_ell, r_T)
        lam = np.zeros(len(self.T))
        lam[self.pos] = np.linalg.solve(self.Z_DD, -x_T[self.pos])
        c_ell, c_T = self.schur.solve(np.zeros_like(r_ell), lam)
        x_T += c_T
        x_T[self.pos] = 0.0
        return x_ell + c_ell, x_T


def _refine(solver: _SchurComplement | _Pinned, iterate: Iterate, barrier: BarrierObjective,
            r: tuple[np.ndarray, np.ndarray], d_ell: np.ndarray, d_s: np.ndarray) -> None:
    """One refinement pass, in place: d += solver.solve(r - H d) on the rows (ell, solver.T).

    The product H d is skipped while d = 0: a pass from zero is a plain solve.
    """
    r_ell, r_T = r
    if d_ell.any() or d_s.any():
        h_ell, h_s = hessian_vector_product(iterate, barrier, d_ell, d_s)
        r_ell, r_T = r_ell - h_ell, r_T - h_s[solver.T]
    e_ell, e_T = solver.solve(r_ell, r_T)
    d_ell += e_ell
    d_s[solver.T] += e_T


def newton_direction(
    iterate: Iterate,
    T: np.ndarray,
    barrier: BarrierObjective,
    grad: tuple[np.ndarray, np.ndarray] | None = None,
    keep_floor: float | None = None,
) -> Direction:
    """Solve the reduced Newton system of size m + |T| by its Schur complement on s_T.

    The right-hand side r's off-T terms vanish unless a coordinate leaves
    the support (s_{~T} != 0).  The direction is two refinement passes
    (_refine) from zero: a solve, then one step of iterative refinement that
    brings it to the accuracy of a dense solve.  The Schur complement is
    positive definite because the reduced matrix is a principal submatrix
    of the positive definite Hessian; a failed eigendecomposition or
    factorization raises NumericalBreakdownError.

    With a keep_floor (the prox's sqrt(2 gamma C)), the off-diagonal
    coordinates D of T whose predicted value |s_i + d_i| falls below it
    leave the working set in the same step: with d_D = -s_D, one pass
    warm-started from the direction on T re-solves on T \\ D through the
    pinned view of the factor held for T (_Pinned).  The returned Direction
    names the set it was solved on.
    """
    g_ell, g_s = grad if grad is not None else grad_h_tau(iterate, barrier)
    m = iterate.basis.m
    Tbar = complement(T, m)
    s_Tbar = iterate.s[Tbar]

    r_ell, r_T = -g_ell, -g_s[T]
    if s_Tbar.any():
        s_off = np.zeros(m)
        s_off[Tbar] = s_Tbar
        h_ell, h_s = hessian_vector_product(iterate, barrier, np.zeros(m), s_off)
        r_ell = r_ell + h_ell
        r_T = r_T + h_s[T]

    schur = _SchurComplement(iterate, T, barrier)
    d_ell, d_s = np.zeros(m), np.zeros(m)
    for _ in range(2):
        _refine(schur, iterate, barrier, (r_ell, r_T), d_ell, d_s)
    if keep_floor is not None:
        pos = np.flatnonzero(iterate.basis.off_diag[T] & (np.abs(iterate.s[T] + d_s[T]) < keep_floor))
        if len(pos):
            d_s[T[pos]] = -iterate.s[T[pos]]
            _refine(_Pinned(schur, pos), iterate, barrier, (r_ell, r_T), d_ell, d_s)
            T = np.delete(T, pos)
    d_s[Tbar] = -s_Tbar
    return Direction(d_ell=d_ell, d_s=d_s, kind="newton", T=T)


def descent_safeguard(
    direction: Direction,
    g_s: np.ndarray,
    s: np.ndarray,
    T: np.ndarray,
    delta: float,
    gamma: float,
    *,
    g_ell: np.ndarray | None = None,
) -> bool:
    """True when <g_{s_T}, d_{s_T}> <= -delta ||d_s||^2 + ||s_{~T}||^2 / (4 gamma).

    ||d_s|| is the norm of the full s-block of the direction, including the
    off-T part.  That is the published test.  With g_ell it is the joint
    test on the whole direction,

        <g_ell, d_ell> + <g_{s_T}, d_{s_T}> <= -delta (||d_ell||^2 + ||d_s||^2)
                                               + ||s_{~T}||^2 / (4 gamma).

    The s-block test rejects Newton directions that move s uphill while ell
    compensates; with s_{~T} = 0 the joint slope of a Newton direction is
    -r^T K^-1 r < 0, so the joint test accepts them.
    """
    Tbar = complement(T, len(s))
    lhs = float(g_s[T] @ direction.d_s[T])
    norm2 = float(direction.d_s @ direction.d_s)
    if g_ell is not None:
        lhs += float(g_ell @ direction.d_ell)
        norm2 += float(direction.d_ell @ direction.d_ell)
    rhs = -delta * norm2 + float(s[Tbar] @ s[Tbar]) / (4.0 * gamma)
    return lhs <= rhs


def fallback_direction(iterate: Iterate, g_ell: np.ndarray, g_s: np.ndarray, T: np.ndarray) -> Direction:
    """Scaled-gradient direction: -g on (ell, s_T) and -s off T."""
    d_s = -g_s.copy()
    Tbar = complement(T, iterate.basis.m)
    d_s[Tbar] = -iterate.s[Tbar]
    return Direction(d_ell=-g_ell, d_s=d_s, kind="gradient-fallback", T=T)


@dataclass
class LineSearchResult:
    alpha: float
    iterate: Iterate | None
    n_backtracks: int
    success: bool


def line_search(
    iterate: Iterate,
    direction: Direction,
    T: np.ndarray,
    barrier: BarrierObjective,
    params: NewtonParams,
    grad: tuple[np.ndarray, np.ndarray] | None = None,
) -> LineSearchResult:
    """Backtracking search over alpha = beta^v with the modified update.

    A trial is accepted when h_tau(trial) <= h_tau + sigma alpha slope, or
    when the same holds with C nnz(.) added to both sides.  The slope uses
    the full concatenated gradient and direction, including the off-T block
    that takes a unit step regardless of alpha.  Infeasible trial points
    evaluate to +inf and fail both tests.
    """
    g_ell, g_s = grad if grad is not None else grad_h_tau(iterate, barrier)
    h0 = eval_h_tau(iterate, barrier)
    C = barrier.problem.C
    merit0 = h0 + C * np.count_nonzero(iterate.s)
    slope = float(g_ell @ direction.d_ell + g_s @ direction.d_s)
    in_T = np.zeros(iterate.basis.m, dtype=bool)
    in_T[T] = True

    for v in range(params.max_backtracks + 1):
        alpha = params.beta**v
        trial_s = np.where(in_T, iterate.s + alpha * direction.d_s, 0.0)
        trial = Iterate(iterate.ell + alpha * direction.d_ell, trial_s, iterate.basis)
        h_trial = eval_h_tau(trial, barrier)
        decrease = params.sigma * alpha * slope
        if h_trial <= h0 + decrease or h_trial + C * np.count_nonzero(trial_s) <= merit0 + decrease:
            return LineSearchResult(alpha=alpha, iterate=trial, n_backtracks=v, success=True)
    return LineSearchResult(alpha=0.0, iterate=None, n_backtracks=params.max_backtracks, success=False)


@dataclass
class InnerSolveResult:
    """Outcome of one fixed-barrier solve."""

    iterate: Iterate
    status: str  # "converged" | "iteration-cap" | "line-search-failure"
    rows: list[TraceRow] = field(default_factory=list)
    n_iters: int = 0
    residual: StationarityResidual | None = None


def fixed_barrier_loop(
    init: Iterate,
    barrier: BarrierObjective,
    step: Callable[[Iterate, tuple[np.ndarray, np.ndarray], StationarityResidual],
                   tuple[Iterate, float, str, int, int] | None],
    *,
    gamma: float,
    residual_tol: float,
    max_iters: int,
    outer_index: int = 0,
) -> InnerSolveResult:
    """Take `step` from a strictly feasible `init` until the residual rule fires.

    The loop every fixed-barrier solver shares, so that their iteration
    counts and traces compare directly.  `step(it, g, res)` gets the current
    iterate, its gradient (g_ell, g_s) and its stationarity residual, and
    returns, for the trace row, the accepted iterate, the step length, the
    direction kind, the size of the index set the step updated (it zeroed
    every coordinate off that set) and the number of trial points rejected
    before the accepted one; or None when its line search failed.  The
    residual rule, ||F|| / sqrt(2m) <= residual_tol at the prox stepsize
    gamma ("converged"), is tested after each step, so every solve takes at
    least one: a warm start that already meets the rule is still corrected
    once, and every barrier level leaves a trace row.  The loop also stops
    after max_iters steps ("iteration-cap"), or when the step returns None
    ("line-search-failure").  Each accepted step appends one trace row
    stamped with `outer_index` and the barrier level.
    """
    if not init.is_strictly_feasible:
        raise InfeasiblePointError("fixed-barrier solve requires a strictly feasible starting point")

    it = init
    g = grad_h_tau(it, barrier)
    res = stationarity_residual(it, barrier, gamma, grad=g)
    rows: list[TraceRow] = []
    while True:
        taken = step(it, g, res)
        if taken is None:
            status = "line-search-failure"
            break
        it, alpha, kind, working_set_size, n_backtracks = taken
        g = grad_h_tau(it, barrier)
        res = stationarity_residual(it, barrier, gamma, grad=g)
        rows.append(TraceRow.accepted(it, barrier, outer_iter=outer_index, inner_iter=len(rows) + 1,
                                      residual_normalized=res.norm_normalized,
                                      working_set_size=working_set_size, step_alpha=alpha,
                                      n_backtracks=n_backtracks, direction_kind=kind))
        if res.norm_normalized <= residual_tol:
            status = "converged"
            break
        if len(rows) >= max_iters:
            status = "iteration-cap"
            break

    return InnerSolveResult(iterate=it, status=status, rows=rows, n_iters=len(rows), residual=res)


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
    again with the dropped coordinates moving with alpha, toward zero at
    alpha = 1: far from the solution a full-step prediction can name
    coordinates whose removal no step size pays for.

    Both the drop and the joint test deviate from the published rules,
    which drop nothing and test the s block alone: the s-block test rejects
    descent directions that move s uphill while ell compensates, and
    without the drop a step overshoots to below the optimum on the smaller
    support, so that h_tau must rise when the prox later drops the
    coordinate.
    """
    keep_floor = np.sqrt(2.0 * params.gamma * barrier.problem.C)

    def newton_step(it, g, res):
        direction = newton_direction(it, res.T, barrier, grad=g, keep_floor=keep_floor)
        if not descent_safeguard(direction, g[1], it.s, direction.T, params.delta, params.gamma,
                                 g_ell=g[0]):
            direction = fallback_direction(it, g[0], g[1], res.T)
        moved = direction.T
        ls = line_search(it, direction, moved, barrier, params, grad=g)
        rejected = ls.n_backtracks
        if not ls.success and len(moved) < len(res.T):
            # zeroing the predicted drops at every alpha failed; let them
            # shrink with alpha instead, and the prox drop them later
            moved = res.T
            ls = line_search(it, direction, moved, barrier, params, grad=g)
            rejected = params.max_backtracks + 1 + ls.n_backtracks
        if not ls.success:
            return None
        return ls.iterate, ls.alpha, direction.kind, len(moved), rejected

    return fixed_barrier_loop(init, barrier, newton_step, gamma=params.gamma,
                              residual_tol=params.residual_tol,
                              max_iters=params.max_inner_iters, outer_index=outer_index)
