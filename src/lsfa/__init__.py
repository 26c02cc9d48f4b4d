"""Low-rank plus sparse covariance estimation with an l0 penalty.

A numerical-optimization library that decomposes a sample covariance matrix
into a low-rank factor part plus a sparse noise part by driving a log-barrier
interior-point loop whose inner solver is a safeguarded Newton iteration on a
stationary-point equation, together with a first-order baseline, a synthetic
factor-model generator, and a benchmark harness.
"""

from .baseline import BaselineParams, bcd_solve
from .datagen import (
    GroundTruth,
    gaussian_kl,
    generate_ground_truth,
    recovery_metrics,
    sample_observations,
)
from .errors import ConfigError, DataError, InfeasiblePointError, NumericalBreakdownError
from .ipm import (
    IpmParams,
    Solution,
    default_init,
    ipm_solve,
    rank_read_out,
    recover_solution,
    sparse_init,
)
from .newton import (
    Direction,
    InnerSolveResult,
    LineSearchResult,
    NewtonParams,
    descent_safeguard,
    fallback_direction,
    line_search,
    newton_direction,
    solve_tau_min,
)
from .objective import (
    BarrierObjective,
    Iterate,
    ProblemData,
    eval_f,
    eval_f_at,
    eval_h_tau,
    grad_h_tau,
    hessian_blocks,
    hessian_h_tau,
    hessian_vector_product,
    sample_covariance,
)
from .prox import (
    StationarityReport,
    StationarityResidual,
    check_gamma_stationary,
    complement,
    evaluate_stationarity_clauses,
    index_set_T,
    prox_l0_scalar,
    prox_l0_vec,
    stationarity_residual,
)
from .symbasis import SymmetricBasis, build_basis
from .trace import TRACE_COLUMNS, TraceRow, read_trace_csv, write_trace_csv

__all__ = [
    "BarrierObjective",
    "BaselineParams",
    "ConfigError",
    "DataError",
    "Direction",
    "GroundTruth",
    "InfeasiblePointError",
    "InnerSolveResult",
    "IpmParams",
    "Iterate",
    "LineSearchResult",
    "NewtonParams",
    "NumericalBreakdownError",
    "ProblemData",
    "Solution",
    "StationarityReport",
    "StationarityResidual",
    "SymmetricBasis",
    "TRACE_COLUMNS",
    "TraceRow",
    "bcd_solve",
    "build_basis",
    "check_gamma_stationary",
    "complement",
    "default_init",
    "descent_safeguard",
    "eval_f",
    "eval_f_at",
    "eval_h_tau",
    "evaluate_stationarity_clauses",
    "fallback_direction",
    "gaussian_kl",
    "generate_ground_truth",
    "grad_h_tau",
    "hessian_blocks",
    "hessian_h_tau",
    "hessian_vector_product",
    "index_set_T",
    "ipm_solve",
    "line_search",
    "newton_direction",
    "prox_l0_scalar",
    "prox_l0_vec",
    "rank_read_out",
    "read_trace_csv",
    "recover_solution",
    "recovery_metrics",
    "sample_covariance",
    "sample_observations",
    "solve_tau_min",
    "sparse_init",
    "stationarity_residual",
    "write_trace_csv",
]

__version__ = "0.1.0"
