"""Outer interior-point loop: geometric barrier decay with extrapolated warm starts.

The k-th inner solve runs at tau = tau0 * theta^k (computed in closed form so
the schedule is exact); the loop ends once tau drops to the termination
threshold.  Each solve starts from the point the last two solutions predict
for its level (extrapolated_start), or from the previous solution when no
such prediction is available or it fails.  The final interior iterate is
mapped back to matrices; the support is read off with a relative threshold
and the rank as the number of dominant factors above the barrier floor
(rank_read_out).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import require_fraction, require_positive
from .newton import InnerSolveResult, NewtonParams, solve_tau_min
from .objective import BarrierObjective, Iterate, ProblemData
from .symbasis import SymmetricBasis
from .trace import TraceRow


@dataclass
class IpmParams(NewtonParams):
    """Inner-solver parameters (every NewtonParams field) plus the barrier schedule.

    Each inner solve runs with these parameters; the weights C and mu belong
    to the ProblemData being solved.
    """

    tau0: float = 0.5
    theta: float = 0.5
    eps: float = 1e-6

    def __post_init__(self):
        super().__post_init__()
        require_positive(tau0=self.tau0, eps=self.eps)
        require_fraction(theta=self.theta)


@dataclass
class Solution:
    """Solver output: matrices, coordinates, structure estimates, and trace."""

    L_star: np.ndarray
    S_star: np.ndarray
    ell_star: np.ndarray
    s_star: np.ndarray
    rank_estimate: int
    support: np.ndarray  # boolean p x p mask of the nonzero entries of S_star
    traces: list[TraceRow] = field(default_factory=list)
    # or "iteration-cap" (a level capped or stalled), "line-search-failure", "empty-schedule"
    status: str = "converged"
    n_outer: int = 0
    final_tau: float = np.nan
    final_residual_normalized: float = np.nan

    @property
    def n_inner_total(self) -> int:
        return len(self.traces)


def default_init(problem: ProblemData) -> tuple[np.ndarray, np.ndarray]:
    """Standard strictly feasible start (L0, S0) = (Sigma_check/2, Sigma_check/2)."""
    half = 0.5 * problem.sigma_check
    return half, half.copy()


def sparse_init(problem: ProblemData, params: IpmParams) -> tuple[np.ndarray, np.ndarray]:
    """Strictly feasible start on the sparse side of the l0 landscape.

    From the dense start (default_init) the noise block absorbs the whole
    covariance, the low-rank block collapses, and that dense point is a
    stable stationary point.  This start instead reaches its support by a
    continuation in the prox stepsize, in two stages that read only
    Sigma_check and the solver parameters:

    1. Diagonal split: S0 = c diag(Sigma_check) and L0 = Sigma_check - S0,
       with c half the smallest eigenvalue of the correlation matrix, so L0
       is positive definite and L0 + S0 = Sigma_check.  The low-rank block
       holds every covariance and the noise block none.
    2. One fixed-barrier solve from that split at tau0 / theta, the level
       just before the schedule's first, with the prox stepsize raised to
       gamma_start = max(gamma, 2C).  Its entry cap sqrt(2C / gamma_start)
       is then 1, the unit weight of the trace penalty on L, so an
       off-diagonal coordinate enters while the fit gradient on it is of
       that order.  At the nominal gamma the cap is sqrt(2C / gamma) (3.2 at
       C=0.5, gamma=0.1), and once g_ell = 0 the gradient
       g_s = tau (L^-1 - S^-1) - I has only barrier terms off the diagonal,
       so no off-diagonal coordinate enters late.  The keep floor
       sqrt(2 gamma_start C) = 2C prunes what entered below it.

    A gamma_start-stationary point is gamma-stationary for every gamma <=
    gamma_start (a higher keep floor, a lower entry cap), so the nominal
    schedule that follows keeps the support it is given and only prunes it.
    The solve's last iterate is returned whatever its status, since every
    iterate is strictly feasible.  When gamma_start exceeds the inverse
    curvature of the fit (mu = 300 on the default instance), coordinates
    enter below the keep floor and leave again, so the solve cannot
    converge: it ends "stalled" (see newton.settle_guard) or in a
    line-search failure.
    """
    sigma = problem.sigma_check
    scale = np.sqrt(np.diag(sigma))
    # numpy's eigensolver, not objective's syevd: the two differ in the last
    # bits, and every pipeline fit starts from this value
    c = 0.5 * float(np.linalg.eigvalsh(sigma / np.outer(scale, scale))[0])
    S0 = np.diag(c * np.diag(sigma))
    basis = SymmetricBasis(problem.p)
    start = Iterate.from_matrices(sigma - S0, S0, basis)
    gamma_start = max(params.gamma, 2.0 * problem.C)
    result = solve_tau_min(
        start,
        BarrierObjective(problem, params.tau0 / params.theta),
        replace(params, gamma=gamma_start),
    )
    return result.iterate.L, result.iterate.S


# An eigenvalue lam of L is held up by the barrier when the barrier's pull on
# it, tau / lam, is at least 1/BARRIER_FLOOR of the trace penalty's unit
# weight.  Measured on the p=40 instances: barrier-held eigenvalues sit within
# 30 tau of it, the smallest eigenvalues that persist as tau -> 0 above 1e4 tau.
BARRIER_FLOOR = 1e3

# Read-out thresholds, relative to the largest eigenvalue of L (rank) and to
# the largest magnitude in S (support).
ETA_RANK = 1e-6
ETA_SUPP = 1e-6


def rank_read_out(eigs: np.ndarray, eta_rank: float, tau: float = np.nan) -> int:
    """Number of dominant factors in a spectrum sorted in decreasing order.

    1. Candidates are the eigenvalues above eta_rank times the largest and,
       when the barrier level tau is known, above BARRIER_FLOOR * tau: the
       eigenvalues below it are O(tau) and vanish in the tau -> 0 limit the
       interior-point method approximates.
    2. The count is read at the largest growth ratio of Ahn and Horenstein
       (Econometrica 2013) over the n candidates,

           GR(k) = log(1 + lam_k / V_k) / log(1 + lam_{k+1} / V_{k+1}),
           V_k = lam_{k+1} + ... + lam_n,   k = 1, ..., n - 2,

       if it exceeds 1, and is n otherwise.  GR(k) > 1 says that lam_k
       stands out from the eigenvalues below it more than lam_{k+1} does:
       the l0 fit leaves L a tail of small eigenvalues that absorb sampling
       noise the sparse block cannot, and the dominant factors stand above
       that tail.  A spectrum without such a step (a flat or clean low-rank
       one, or fewer than three candidates) keeps every candidate.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs[0] <= 0:
        return 0
    floor = eta_rank * eigs[0]
    if np.isfinite(tau) and tau > 0:
        floor = max(floor, BARRIER_FLOOR * tau)
    lam = eigs[eigs > floor]
    n = len(lam)
    if n < 3:
        return n
    tail = np.cumsum(lam[::-1])[::-1][1:]  # V_k for k = 1, ..., n - 1
    growth = np.log1p(lam[:-1] / tail)
    ratio = growth[:-1] / growth[1:]
    k = int(np.argmax(ratio))
    return k + 1 if ratio[k] > 1 else n


def recover_solution(iterate: Iterate, eta_rank: float = ETA_RANK, eta_supp: float = ETA_SUPP,
                     **outcome) -> Solution:
    """Map a final iterate to matrices and structure estimates.

    rank_estimate is the number of dominant factors of L (see rank_read_out,
    with the barrier floor at final_tau when it is given); support marks
    entries of S above eta_supp times the largest magnitude.  `outcome`
    holds the Solution fields of the run (traces, status, ...), passed on as
    they are.
    """
    L, S = iterate.L, iterate.S
    rank_estimate = rank_read_out(np.linalg.eigvalsh(L)[::-1], eta_rank,
                                  outcome.get("final_tau", Solution.final_tau))
    s_max = float(np.max(np.abs(S)))
    support = np.abs(S) > eta_supp * s_max if s_max > 0 else np.zeros_like(S, dtype=bool)
    return Solution(L_star=L, S_star=S, ell_star=iterate.ell.copy(), s_star=iterate.s.copy(),
                    rank_estimate=rank_estimate, support=support, **outcome)


def extrapolated_start(previous: Iterate, current: Iterate, theta: float) -> Iterate:
    """The start the centres of two barrier levels predict for the next level.

    With x_{k-1} = previous and x_k = current the solutions at tau_{k-1} and
    tau_k, the secant x_k + theta (x_k - x_{k-1}) with theta =
    (tau_{k+1} - tau_k) / (tau_k - tau_{k-1}), which is the schedule's
    ratio theta for the geometric schedule.  It is exact for components of
    the central path that are linear in tau, such as the eigenvalues of L
    the barrier holds up, and for components that have stopped moving.
    From x_k itself a full Newton step toward the centre at theta tau sends
    a component that scales with tau to (2 - 1/theta) times its value there
    (in the one-dimensional model), onto the cone boundary at theta = 1/2,
    so the line search halves the first step of every level.

    The secant applies to ell and to the coordinates of s that are nonzero
    in both centres; every other coordinate of s keeps x_k's value, so a
    zero stays zero and a coordinate that left the support does not come
    back with its sign flipped.  Returns `current` itself when the
    prediction is not strictly feasible.
    """
    ell = current.ell + theta * (current.ell - previous.ell)
    both = (previous.s != 0) & (current.s != 0)
    s = np.where(both, current.s + theta * (current.s - previous.s), current.s)
    predicted = Iterate(ell, s, current.basis)
    return predicted if predicted.is_strictly_feasible else current


def ipm_solve(
    problem: ProblemData,
    init: tuple[np.ndarray, np.ndarray],
    params: IpmParams,
    eta_rank: float = ETA_RANK,
    eta_supp: float = ETA_SUPP,
) -> Solution:
    """Drive the barrier parameter down to eps, warm-starting each solve.

    The read-out thresholds eta_rank and eta_supp must lie in (0, 1); they
    are checked before any solve (ConfigError).

    Level 0 starts at `init` and level 1 at level 0's solution.  Once the
    two previous levels have both converged, a level starts at the point
    their solutions predict (extrapolated_start), or at the previous
    solution when that point is not strictly feasible; when the solve from
    the predicted point does not converge, the level is solved again from
    the previous solution, and only that solve's trace rows are kept.

    A line-search failure in an inner solve aborts the loop and propagates
    in the status together with the partial trace.  An inner solve that
    hit its iteration cap or ended "stalled" (see newton.settle_guard) is
    recorded as "iteration-cap" and the outer loop continues.  When
    tau0 <= eps the schedule is empty: no solve runs, the initial matrices
    come back with status "empty-schedule", final_tau is tau0 and the
    residual is NaN.
    """
    require_fraction(eta_rank=eta_rank, eta_supp=eta_supp)
    basis = SymmetricBasis(problem.p)
    it = Iterate.from_matrices(*init, basis)
    it.require_feasible()

    if params.tau0 <= params.eps:
        # no barrier level to solve: the start, read out with no barrier floor
        solution = recover_solution(it, eta_rank, eta_supp, status="empty-schedule")
        return replace(solution, final_tau=params.tau0)

    rows: list[TraceRow] = []
    statuses: list[str] = []
    centres: list[Iterate] = []  # the solutions of the last levels, while they converge
    k = 0
    while (tau := params.tau0 * params.theta**k) > params.eps:
        barrier = BarrierObjective(problem, tau)
        start = extrapolated_start(*centres, params.theta) if len(centres) == 2 else it
        result: InnerSolveResult = solve_tau_min(start, barrier, params, outer_index=k)
        if start is not it and result.status != "converged":
            result = solve_tau_min(it, barrier, params, outer_index=k)
        it = result.iterate
        centres = [*centres[-1:], it] if result.status == "converged" else []
        rows.extend(result.rows)
        statuses.append(result.status)
        k += 1
        if result.status == "line-search-failure":
            break

    if "line-search-failure" in statuses:
        status = "line-search-failure"
    elif "iteration-cap" in statuses or "stalled" in statuses:
        status = "iteration-cap"
    else:
        status = "converged"

    return recover_solution(it, eta_rank, eta_supp, traces=rows, status=status,
                            n_outer=len(statuses), final_tau=barrier.tau,
                            final_residual_normalized=result.residual.norm_normalized)
