"""Block-coordinate first-order baseline for the fixed-barrier problem.

Alternates a backtracked gradient step on the low-rank block with a
prox-gradient step on the sparse block,

    ell <- ell - t * g_ell,
    s   <- prox at stepsize gamma' of (s - gamma' * g_s),

halving t (respectively gamma') until the trial point is strictly feasible
and the barrier objective does not increase.  Infeasible trials evaluate to
+inf, so one inequality covers both rejections.  Most of the ell step's
halvings are such infeasible trials: L - t G (G the ell gradient as a
matrix) is positive definite exactly when t * top < 1, top the largest
eigenvalue of the pencil (G, L).  The step computes that one eigenvalue
through the inverse of L's Cholesky factor, which its iterate already holds
since the gradient formed L^-1 from it (pencil_top), and counts the halvings
clearly outside the cone as rejected without building their trial point;
the iterates, step lengths and rejection counts are those of building every
trial.  Each trial moves one block and is built from the iterate it moves
away from, so it keeps that iterate's factor and inverses of the block it
does not move: an ell trial factors only L and Sigma, a prox trial only S
and Sigma.  The solver records the same normalized stationarity residual as
the Newton solver (always at the nominal gamma), which makes the two traces
directly comparable.

This baseline deliberately targets the same fixed-tau barrier problem as one
inner Newton solve, so both solvers chase the same stationary points and the
iteration counts measure convergence rate, not problem difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_count, require_positive
from .newton import (BACKTRACK_BETA, MAX_BACKTRACKS, InnerSolveResult, NewtonParams,
                     fixed_barrier_loop)
from .objective import BarrierObjective, Iterate, call_lapack, eval_h_tau, grad_h_tau
from .prox import prox_l0_vec

# Standard small sufficient-decrease fraction for the smooth-block step.
_ARMIJO_SLOPE = 1e-4
# An ell trial with t * top >= 1 + _CONE_MARGIN is rejected unbuilt: its
# L - t G has an eigenvalue below -_CONE_MARGIN relative to L.  The rounding
# in top and in forming ell - t g_ell is of order eps * cond(L), ~1e-6 at the
# cond(L) ~ 4e9 the p = 40 baseline reaches at tau ~ 2e-6, a hundredth of the
# margin.  Trials nearer the bound are built, so the Cholesky decides them.
_CONE_MARGIN = 1e-4


def pencil_top(chol_inv_L: np.ndarray, G: np.ndarray) -> float:
    """Largest eigenvalue of the pencil (G, L), given the inverse of L's lower Cholesky factor.

    For t >= 0, L - t G is positive definite exactly when t * pencil_top < 1.
    With L = C C^T, the pencil has the eigenvalues of C^-1 G C^-T, so the
    triangular inverse C^-1 an iterate holds (its gradient formed L^-1 from
    it) reduces it to a standard symmetric problem in two GEMMs, and only
    that problem's top eigenvalue is computed (LAPACK syevr, which reads the
    lower triangle).
    """
    p = G.shape[0]
    top = call_lapack("syevr", "C^-1 G C^-T, the pencil (G, L) reduced",
                      chol_inv_L @ G @ chol_inv_L.T, compute_v=0, range="I", il=p, iu=p,
                      lower=1, overwrite_a=1)[0]
    return float(top[0])


def outside_cone(t: float, top: float) -> bool:
    """True when the ell trial at step t lies clearly outside the cone (its L is not PD)."""
    return t * top >= 1 + _CONE_MARGIN


@dataclass
class BaselineParams:
    """First-order solver parameters; gamma doubles as the prox stepsize.

    The stopping threshold defaults to the Newton solver's, and the halving
    ratio and cap are its BACKTRACK_BETA and MAX_BACKTRACKS, so the two
    solvers compare under the same rules.
    """

    gamma: float
    residual_tol: float = NewtonParams.residual_tol
    max_iters: int = 20000

    def __post_init__(self):
        require_positive(gamma=self.gamma, residual_tol=self.residual_tol)
        require_count(max_iters=self.max_iters)


def bcd_solve(init: Iterate, barrier: BarrierObjective, params: BaselineParams) -> InnerSolveResult:
    """Run the alternating first-order iteration in the fixed-barrier loop, without settle_guard."""
    problem = barrier.problem
    basis = init.basis

    def bcd_step(it, g, res):
        h_here = eval_h_tau(it, barrier)

        # Smooth-block gradient step with sufficient decrease.
        g_ell = g[0]
        slope = float(g_ell @ g_ell)
        it_mid, h_mid, accepted_t = it, h_here, 0.0
        rejected = 0  # trial points rejected in both blocks, for the trace row
        if slope > 0:
            top = pencil_top(it.chol_inv_L, basis.vec_to_mat(g_ell))
            for k in range(MAX_BACKTRACKS + 1):
                t = BACKTRACK_BETA**k
                if not outside_cone(t, top):
                    trial = Iterate(it.ell - t * g_ell, it.s, basis, it)
                    h_trial = eval_h_tau(trial, barrier)
                    if h_trial <= h_here - _ARMIJO_SLOPE * t * slope:
                        it_mid, h_mid, accepted_t = trial, h_trial, t
                        break
                rejected += 1

        # Sparse-block prox-gradient step; the stepsize halves until the
        # barrier objective is nonincreasing (a no-move trial satisfies this
        # with equality, so exact fixed points are accepted immediately).
        g_s_mid = grad_h_tau(it_mid, barrier)[1]
        gp, it_next = params.gamma, it_mid
        for _ in range(MAX_BACKTRACKS + 1):
            s_plus = prox_l0_vec(it_mid.s - gp * g_s_mid, gp, problem.C)
            trial = Iterate(it_mid.ell, s_plus, basis, it_mid)
            if eval_h_tau(trial, barrier) <= h_mid:
                it_next = trial
                break
            gp *= BACKTRACK_BETA
            rejected += 1
        return it_next, dict(step_alpha=accepted_t, direction_kind="bcd",
                             working_set_size=len(res.T), n_backtracks=rejected)

    return fixed_barrier_loop(init, barrier, bcd_step, gamma=params.gamma,
                              residual_tol=params.residual_tol, max_iters=params.max_iters)
