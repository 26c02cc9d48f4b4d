"""Run configuration, file I/O, and the benchmark pipelines behind the CLI.

File conventions: matrices are dense CSV, row-major, no header, 17
significant digits (lossless for float64); traces carry a header row (see
trace.py); summaries are JSON.  All outputs land in the run directory, taken
from the LSFA_RUN_DIR environment variable unless overridden.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .baseline import BaselineParams, bcd_solve
from .datagen import check_instance, generate_ground_truth, sample_observations
from .errors import ConfigError, DataError, require_positive
from .ipm import ETA_RANK, ETA_SUPP, IpmParams, Solution, ipm_solve, sparse_init
from .newton import NewtonParams
from .objective import BarrierObjective, Iterate, ProblemData, sample_covariance
from .symbasis import SymmetricBasis
from .trace import write_trace_csv

RUN_DIR_ENV = "LSFA_RUN_DIR"


@dataclass
class RunConfig:
    """Every knob of the pipeline; defaults reproduce the benchmark setup."""

    # synthetic instance
    p: int = 40
    r: int = 5
    n: int = 1200
    density: float = 0.05
    snr: float = 1.0
    seed: int = 7
    # objective weights and solver parameters
    C: float = 0.5
    mu: float = 100.0
    gamma: float = 0.1
    tau0: float = IpmParams.tau0
    theta: float = IpmParams.theta
    eps: float = IpmParams.epsilon
    delta: float = NewtonParams.delta
    sigma: float = NewtonParams.sigma
    beta: float = NewtonParams.beta
    residual_tol: float = NewtonParams.residual_tol
    max_inner_iters: int = NewtonParams.max_inner_iters
    max_backtracks: int = NewtonParams.max_backtracks
    eta_rank: float = ETA_RANK
    eta_supp: float = ETA_SUPP
    # first-order baseline
    bcd_max_iters: int = BaselineParams.max_iters
    bcd_step_ell: float = BaselineParams.step_ell
    # cross-validation
    folds: int = 3
    c_grid: tuple[float, ...] = (0.25, 0.5, 1.0)
    mu_grid: tuple[float, ...] = (30.0, 100.0, 300.0)
    # files
    run_dir: str = ""
    samples_file: str = "samples.csv"
    covariance_file: str | None = None
    trace_out: str = "trace.csv"

    def __post_init__(self):
        if not self.run_dir:
            self.run_dir = os.environ.get(RUN_DIR_ENV, ".")

    def validate(self) -> "RunConfig":
        """Raise ConfigError naming the first offending field.

        Each value is checked by the code that uses it: the instance sizes by
        datagen.check_instance, the weights by ProblemData.check_weights, the
        solver parameters by the classes ipm_params() and baseline_params()
        build.  Checked here are the fields nothing else reads, and the three
        those classes know by other names (epsilon, max_iters, step_ell), so
        that the error names the field that was set.
        """
        require_positive(p=self.p, n=self.n, eta_rank=self.eta_rank, eta_supp=self.eta_supp,
                         eps=self.eps, bcd_max_iters=self.bcd_max_iters,
                         bcd_step_ell=self.bcd_step_ell)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        for name in ("c_grid", "mu_grid"):
            grid = getattr(self, name)
            if not grid or not all(0 < x < math.inf for x in grid):
                raise ConfigError(f"{name} must be non-empty with finite positive entries")
        check_instance(self.p, self.r, self.density, self.snr)
        ProblemData.check_weights(self.C, self.mu)
        self.ipm_params()
        self.baseline_params()
        return self

    def ipm_params(self) -> IpmParams:
        return IpmParams(
            gamma=self.gamma,
            delta=self.delta,
            sigma=self.sigma,
            beta=self.beta,
            residual_tol=self.residual_tol,
            max_inner_iters=self.max_inner_iters,
            max_backtracks=self.max_backtracks,
            tau0=self.tau0,
            theta=self.theta,
            epsilon=self.eps,
        )

    def baseline_params(self) -> BaselineParams:
        return BaselineParams(
            gamma=self.gamma,
            step_ell=self.bcd_step_ell,
            residual_tol=self.residual_tol,
            max_iters=self.bcd_max_iters,
            max_backtracks=self.max_backtracks,
        )

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)


# field name -> declared type: int, float, str, str | None or tuple[float, ...]
FIELD_TYPES = get_type_hints(RunConfig)


def _is_number(x, kind=numbers.Real) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def _as_field_type(name: str, value):
    """`value` as RunConfig field `name` holds it; ConfigError if it has another type.

    An int is accepted where a float is declared, a list where a tuple is.
    """
    kind = FIELD_TYPES[name]
    if kind is int and _is_number(value, numbers.Integral):
        return int(value)
    if kind is float and _is_number(value):
        return float(value)
    if kind == tuple[float, ...] and isinstance(value, (list, tuple)) and all(map(_is_number, value)):
        return tuple(float(x) for x in value)
    if isinstance(value, str) and kind in (str, str | None) or value is None and kind == str | None:
        return value
    kind_name = kind.__name__ if isinstance(kind, type) else kind
    raise ConfigError(f"{name} must be of type {kind_name}, got {value!r}")


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON), rejecting unknown keys and types."""
    unknown = set(data) - set(FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**{name: _as_field_type(name, value) for name, value in data.items()})


def write_matrix_csv(path, M: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    """The matrix in a CSV file; DataError when the file is not a numeric matrix."""
    try:
        return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:
        raise DataError(f"{path} is not a numeric CSV matrix: {exc}") from exc


def _l0_counts(S: np.ndarray, basis: SymmetricBasis) -> dict:
    """Both sparsity counts: matrix entries (off-diagonal counted twice) and coordinates."""
    coords = basis.mat_to_vec(S)
    return {
        "l0_matrix_entries": int(np.count_nonzero(S)),
        "l0_coordinates": int(np.count_nonzero(coords)),
    }


def run_generate(config: RunConfig) -> dict:
    """Draw an instance and write samples plus ground-truth matrices."""
    config.validate()
    truth = generate_ground_truth(config.p, config.r, config.density, config.snr, config.seed)
    samples = sample_observations(truth, config.n, config.seed + 1)
    os.makedirs(config.run_dir, exist_ok=True)
    write_matrix_csv(config.path(config.samples_file), samples)
    write_matrix_csv(config.path("truth_gamma.csv"), truth.Gamma)
    write_matrix_csv(config.path("truth_s.csv"), truth.S_hat)
    write_matrix_csv(config.path("truth_sigma.csv"), truth.Sigma_hat)
    np.savetxt(config.path("truth_support.csv"),
               truth.support_mask.astype(int), fmt="%d", delimiter=",")
    summary = {
        "p": config.p,
        "r": config.r,
        "n": config.n,
        "snr": config.snr,
        "seed": config.seed,
        "samples_file": config.path(config.samples_file),
    }
    print("generated instance:", json.dumps(summary))
    return summary


def load_problem(config: RunConfig) -> ProblemData:
    """Build ProblemData from the configured covariance or samples file."""
    source = config.covariance_file or config.samples_file
    try:
        if config.covariance_file is not None:
            sigma = read_matrix_csv(config.path(config.covariance_file))
        else:
            sigma = sample_covariance(read_matrix_csv(config.path(config.samples_file)))
        return ProblemData(sigma, C=config.C, mu=config.mu)
    except DataError as exc:
        raise DataError(f"cannot use the covariance from {source!r}: {exc}") from exc


def _json_number(x: float) -> float | None:
    """x, or None (JSON null) for NaN and infinities, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def _fit(config: RunConfig, problem: ProblemData) -> tuple[tuple[np.ndarray, np.ndarray], Solution]:
    """The pipelines' fit: the sparse start and the interior-point solve from it.

    ipm_solve is looked up in this module at each call, so replacing
    lsfa.harness.ipm_solve observes every fit the pipelines make.
    """
    params = config.ipm_params()
    start = sparse_init(problem, params)
    return start, ipm_solve(problem, start, params, eta_rank=config.eta_rank,
                            eta_supp=config.eta_supp)


def run_solve(config: RunConfig) -> Solution:
    """Full interior-point solve; writes solution matrices and the trace."""
    config.validate()
    problem = load_problem(config)
    _, solution = _fit(config, problem)
    os.makedirs(config.run_dir, exist_ok=True)
    write_matrix_csv(config.path("L_star.csv"), solution.L_star)
    write_matrix_csv(config.path("S_star.csv"), solution.S_star)
    write_trace_csv(solution.traces, config.path(config.trace_out))
    basis = SymmetricBasis(problem.p)
    summary = {
        "status": solution.status,
        "outer_solves": solution.n_outer,
        "inner_iterations": solution.n_inner_total,
        "final_tau": _json_number(solution.final_tau),
        "final_residual_normalized": _json_number(solution.final_residual_normalized),
        "rank_estimate": solution.rank_estimate,
        **_l0_counts(solution.S_star, basis),
    }
    print("solve summary:", json.dumps(summary))
    return solution


def run_compare(config: RunConfig) -> dict:
    """IPM vs the first-order baseline on the identical instance.

    The baseline solves the fixed-barrier problem at the IPM's final tau from
    the same initialization, so both solvers chase the same stationary points
    and the iteration counts are directly comparable.
    """
    config.validate()
    problem = load_problem(config)
    start, ipm_solution = _fit(config, problem)
    init = Iterate.from_matrices(*start, SymmetricBasis(problem.p))
    barrier = BarrierObjective(problem, ipm_solution.final_tau)
    bcd_result = bcd_solve(init, barrier, config.baseline_params())

    os.makedirs(config.run_dir, exist_ok=True)
    write_trace_csv(ipm_solution.traces, config.path("ipm_trace.csv"))
    write_trace_csv(bcd_result.rows, config.path("bcd_trace.csv"))

    bcd_to_tol = next(
        (row.inner_iter for row in bcd_result.rows
         if row.residual_normalized <= config.residual_tol),
        None,
    )
    summary = {
        "baseline_tau": ipm_solution.final_tau,
        "residual_tol": config.residual_tol,
        "note": "baseline solves the fixed-barrier problem at the IPM's final tau "
                "from the same initialization",
        "ipm": {
            "status": ipm_solution.status,
            "outer_solves": ipm_solution.n_outer,
            "total_inner_iterations": ipm_solution.n_inner_total,
            "iterations_to_tol": (
                ipm_solution.n_inner_total if ipm_solution.status == "converged" else None
            ),
            "final_residual_normalized": ipm_solution.final_residual_normalized,
        },
        "bcd": {
            "status": bcd_result.status,
            "iterations": bcd_result.n_iters,
            "iterations_to_tol": bcd_to_tol,
            "final_residual_normalized": bcd_result.residual.norm_normalized,
        },
    }
    with open(config.path("summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print("compare summary:", json.dumps(summary))
    return summary


def gaussian_nll(samples: np.ndarray, cov: np.ndarray) -> float:
    """Mean negative log-likelihood of zero-mean Gaussian samples under cov."""
    p = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    # y' cov^{-1} y via triangular solve, averaged over rows
    z = np.linalg.solve(chol, samples.T)
    quad = float(np.mean(np.sum(z * z, axis=0)))
    return 0.5 * (quad + logdet + p * math.log(2.0 * math.pi))


def run_cv(config: RunConfig) -> dict:
    """K-fold grid search over (C, mu) scored by held-out Gaussian NLL."""
    config.validate()
    samples = read_matrix_csv(config.path(config.samples_file))
    n = samples.shape[0]
    if config.folds > n:
        # a fold without samples has no held-out likelihood to score
        raise ConfigError(f"folds={config.folds} exceeds the {n} samples in {config.samples_file}")
    if n // config.folds < config.p:
        warnings.warn(
            f"fold size {n // config.folds} is below p={config.p}; per-fold sample "
            "covariances may be singular (scoring uses the fitted model only, so "
            "the run proceeds)"
        )
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, config.folds)

    table = []
    for C in config.c_grid:
        for mu in config.mu_grid:
            scores = []
            for k in range(config.folds):
                val_idx = fold_ids[k]
                train_idx = np.concatenate([fold_ids[j] for j in range(config.folds) if j != k])
                try:
                    problem = ProblemData(sample_covariance(samples[train_idx]), C=C, mu=mu)
                    _, solution = _fit(config, problem)
                    if solution.status != "converged":
                        # a grid point whose fit aborts or stalls is not a
                        # usable configuration; rank it behind every fit that
                        # completed its barrier schedule
                        scores.append(float("inf"))
                    else:
                        fitted_cov = solution.L_star + solution.S_star
                        scores.append(gaussian_nll(samples[val_idx], fitted_cov))
                except (DataError, np.linalg.LinAlgError):
                    scores.append(float("inf"))
            table.append({"C": C, "mu": mu, "score": float(np.mean(scores))})

    best = min(table, key=lambda row: row["score"])
    os.makedirs(config.run_dir, exist_ok=True)
    with open(config.path("cv_scores.csv"), "w") as fh:
        fh.write("C,mu,score\n")
        for row in table:
            fh.write(f"{row['C']:.17g},{row['mu']:.17g},{row['score']:.17g}\n")
    result = {"best_C": best["C"], "best_mu": best["mu"], "best_score": best["score"],
              "table": table}
    print("cv result:", json.dumps({"best_C": best["C"], "best_mu": best["mu"],
                                    "best_score": _json_number(best["score"])}))
    return result
