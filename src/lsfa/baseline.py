"""Block-coordinate first-order baseline for the fixed-barrier problem.

Alternates a backtracked gradient step on the low-rank block with a
prox-gradient step on the sparse block,

    ell <- ell - t * g_ell,
    s   <- prox at stepsize gamma' of (s - gamma' * g_s),

halving t (respectively gamma') until the trial point is strictly feasible
and the barrier objective does not increase.  Infeasible trials evaluate to
+inf, so one inequality covers both rejections.  The solver records the same
normalized stationarity residual as the Newton solver (always at the nominal
gamma), which makes the two traces directly comparable.

This baseline deliberately targets the same fixed-tau barrier problem as one
inner Newton solve, so both solvers chase the same stationary points and the
iteration counts measure convergence rate, not problem difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasiblePointError, require_positive
from .newton import InnerSolveResult
from .objective import BarrierObjective, Iterate, eval_h_tau, grad_h_tau
from .prox import prox_l0_vec, stationarity_residual
from .trace import TraceRow

# Standard small sufficient-decrease fraction for the smooth-block step.
_ARMIJO_SLOPE = 1e-4


@dataclass
class BaselineParams:
    """First-order solver parameters; gamma doubles as the prox stepsize."""

    gamma: float
    step_ell: float = 1.0
    residual_tol: float = 1e-4
    max_iters: int = 20000
    max_backtracks: int = 60

    def __post_init__(self):
        require_positive(gamma=self.gamma, step_ell=self.step_ell, residual_tol=self.residual_tol,
                         max_iters=self.max_iters, max_backtracks=self.max_backtracks)


def bcd_solve(init: Iterate, barrier: BarrierObjective, params: BaselineParams) -> InnerSolveResult:
    """Run the alternating first-order iteration until the residual rule fires."""
    if not init.is_strictly_feasible:
        raise InfeasiblePointError("baseline solve requires a strictly feasible starting point")
    problem = barrier.problem
    basis = init.basis

    it = init
    g = grad_h_tau(it, barrier)
    res = stationarity_residual(it, barrier, params.gamma, grad=g)
    rows: list[TraceRow] = []
    k = 0
    while True:
        if res.norm_normalized <= params.residual_tol:
            status = "converged"
            break
        if k >= params.max_iters:
            status = "iteration-cap"
            break

        h_here = eval_h_tau(it, barrier)

        # Smooth-block gradient step with sufficient decrease.
        g_ell = g[0]
        slope = float(g_ell @ g_ell)
        it_mid, h_mid, accepted_t = it, h_here, 0.0
        if slope > 0:
            t = params.step_ell
            for _ in range(params.max_backtracks + 1):
                trial = Iterate(it.ell - t * g_ell, it.s, basis)
                h_trial = eval_h_tau(trial, barrier)
                if h_trial <= h_here - _ARMIJO_SLOPE * t * slope:
                    it_mid, h_mid, accepted_t = trial, h_trial, t
                    break
                t *= 0.5

        # Sparse-block prox-gradient step; the stepsize halves until the
        # barrier objective is nonincreasing (a no-move trial satisfies this
        # with equality, so exact fixed points are accepted immediately).
        g_s_mid = grad_h_tau(it_mid, barrier)[1]
        it_next = it_mid
        gp = params.gamma
        for _ in range(params.max_backtracks + 1):
            s_plus = prox_l0_vec(it_mid.s - gp * g_s_mid, gp, problem.C)
            trial = Iterate(it_mid.ell, s_plus, basis)
            if eval_h_tau(trial, barrier) <= h_mid:
                it_next = trial
                break
            gp *= 0.5

        it = it_next
        k += 1
        g = grad_h_tau(it, barrier)
        res = stationarity_residual(it, barrier, params.gamma, grad=g)
        rows.append(TraceRow.accepted(it, barrier, outer_iter=0, inner_iter=k,
                                      residual_normalized=res.norm_normalized,
                                      step_alpha=accepted_t, direction_kind="bcd"))

    return InnerSolveResult(iterate=it, status=status, rows=rows, n_iters=k, residual=res)
