"""Hard-thresholding proximal operator and stationarity machinery.

The proximal operator of gamma * C * ||.||_0 decouples elementwise and has
the closed form

    prox(x) = 0    if |x| <  sqrt(2 gamma C)
              x    if |x| >  sqrt(2 gamma C)
              {0, x} at the tie |x| = sqrt(2 gamma C).

Ties are resolved to 0, which makes the operator a deterministic function
favoring sparsity; at minimizers the operator is single-valued so the policy
only affects transient iterates.

A point (ell, s) is stationary for the barrier problem with an l0 penalty
exactly when g_ell = 0 and s is a fixed point of the prox-gradient map,
which is equivalent to the nonlinear system

    F(ell, s; T) = [ g_ell ; g_s restricted to T ; s restricted to ~T ] = 0,

where T = { i : |s_i - gamma * g_{s_i}| >= sqrt(2 gamma C) }.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_positive
from .objective import BarrierObjective, Iterate, grad_h_tau


def prox_keep_floor(gamma: float, C: float) -> float:
    """sqrt(2 gamma C): the prox keeps a coordinate above it and zeroes one below."""
    return np.sqrt(2.0 * gamma * C)


def prox_entry_cap(gamma: float, C: float) -> float:
    """sqrt(2 C / gamma): a zero coordinate joins the working set only once |g_s| reaches it."""
    return np.sqrt(2.0 * C / gamma)


def prox_l0_scalar(x: float, gamma: float, C: float) -> float:
    """Hard threshold a scalar at sqrt(2 gamma C); ties map to 0."""
    return float(prox_l0_vec(x, gamma, C))


def prox_l0_vec(x: np.ndarray, gamma: float, C: float) -> np.ndarray:
    """Elementwise hard threshold of a vector at sqrt(2 gamma C)."""
    require_positive(gamma=gamma, C=C)
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) > prox_keep_floor(gamma, C), x, 0.0)


def index_set_T(s: np.ndarray, g_s: np.ndarray, gamma: float, C: float) -> np.ndarray:
    """Indices with |s_i - gamma * g_{s_i}| >= sqrt(2 gamma C), sorted.

    The inequality is inclusive, matching the definition used by the Newton
    solver (the prox keep-branch is strict; the one-point discrepancy at exact
    ties is measure zero).
    """
    require_positive(gamma=gamma, C=C)
    s = np.asarray(s, dtype=float)
    g_s = np.asarray(g_s, dtype=float)
    if s.shape != g_s.shape:
        raise ValueError(f"s and g_s must have equal length, got {s.shape} and {g_s.shape}")
    return np.flatnonzero(np.abs(s - gamma * g_s) >= prox_keep_floor(gamma, C))


def complement(T: np.ndarray, m: int) -> np.ndarray:
    """Sorted complement of the index set T inside {0, ..., m-1}."""
    mask = np.ones(m, dtype=bool)
    mask[T] = False
    return np.flatnonzero(mask)


@dataclass
class StationarityResidual:
    """The working set T of an iterate and the size of its residual F.

    F(ell, s; T) = [g_ell; g_s on T; s off T] stacks the three parts of the
    stationarity system (see the module docstring); norm_normalized is
    ||F|| / sqrt(2m), the quantity the residual rule compares with its
    tolerance.
    """

    T: np.ndarray  # sorted coordinate indices
    norm_normalized: float


def stationarity_residual(
    iterate: Iterate,
    barrier: BarrierObjective,
    gamma: float,
    grad: tuple[np.ndarray, np.ndarray] | None = None,
) -> StationarityResidual:
    """Evaluate the stationarity system at an iterate.

    The index set T is recomputed at the current point from the current
    gradient, and always holds every diagonal coordinate: a positive-definite
    S has a positive diagonal, so ||S||_0 counts the diagonal as a constant
    p and the prox leaves those coordinates alone.  (Zeroing one would put
    every trial point of the modified update outside the cone.)  `grad` may
    carry a precomputed (g_ell, g_s) pair to avoid a second evaluation
    inside solver loops.
    """
    g_ell, g_s = grad if grad is not None else grad_h_tau(iterate, barrier)
    basis = iterate.basis
    in_T = ~basis.off_diag
    in_T[index_set_T(iterate.s, g_s, gamma, barrier.problem.C)] = True
    T = np.flatnonzero(in_T)
    r_s_T = g_s[T]
    r_s_Tbar = iterate.s[~in_T]
    norm = float(np.sqrt(g_ell @ g_ell + r_s_T @ r_s_T + r_s_Tbar @ r_s_Tbar))
    return StationarityResidual(T=T, norm_normalized=norm / np.sqrt(2.0 * basis.m))


@dataclass
class StationarityReport:
    """Outcome of the clause-by-clause stationarity check."""

    is_stationary: bool
    violations: list[str]


def evaluate_stationarity_clauses(
    g_ell: np.ndarray,
    g_s: np.ndarray,
    s: np.ndarray,
    gamma: float,
    C: float,
    tol: float = 1e-6,
) -> StationarityReport:
    """Check the fixed-point optimality clauses on explicit vectors.

    Within tolerance `tol`: g_ell vanishes; every supported coordinate has a
    vanishing gradient and magnitude at least sqrt(2 gamma C); every
    unsupported coordinate has |g_{s_i}| <= sqrt(2 C / gamma).
    """
    require_positive(gamma=gamma, C=C)
    violations: list[str] = []
    g_ell_max = float(np.max(np.abs(g_ell))) if len(g_ell) else 0.0
    if g_ell_max > tol:
        violations.append(f"g_ell not zero: max |g_ell| = {g_ell_max:.3e} > tol {tol:g}")
    keep_floor, off_cap = prox_keep_floor(gamma, C), prox_entry_cap(gamma, C)
    for i in np.flatnonzero(s):
        if abs(g_s[i]) > tol:
            violations.append(f"supported coordinate {i}: |g_s| = {abs(g_s[i]):.3e} > tol {tol:g}")
        if abs(s[i]) < keep_floor - tol:
            violations.append(
                f"supported coordinate {i}: |s_i| = {abs(s[i]):.3e} below the "
                f"keep threshold sqrt(2*gamma*C) = {keep_floor:.3e}"
            )
    for i in np.flatnonzero(s == 0):
        if abs(g_s[i]) > off_cap + tol:
            violations.append(
                f"unsupported coordinate {i}: |g_s| = {abs(g_s[i]):.3e} exceeds "
                f"sqrt(2*C/gamma) = {off_cap:.3e}"
            )
    return StationarityReport(is_stationary=not violations, violations=violations)


def check_gamma_stationary(
    iterate: Iterate,
    barrier: BarrierObjective,
    gamma: float,
    tol: float = 1e-6,
) -> StationarityReport:
    """Verify the stationarity clauses at an iterate, reporting each violation."""
    g_ell, g_s = grad_h_tau(iterate, barrier)
    return evaluate_stationarity_clauses(g_ell, g_s, iterate.s, gamma, barrier.problem.C, tol=tol)
