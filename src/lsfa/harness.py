"""Run configuration, file I/O, and the benchmark pipelines behind the CLI.

File conventions: matrices are dense CSV, row-major, no header, 17
significant digits (lossless for float64); traces carry a header row (see
trace.py); summaries are JSON, with null for NaN and infinities.  All outputs
land in the run directory, taken from the LSFA_RUN_DIR environment variable
unless overridden.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .baseline import BaselineParams, bcd_solve
from .datagen import check_instance, generate_ground_truth, sample_observations
from .errors import (ConfigError, DataError, InfeasiblePointError, NumericalBreakdownError,
                     require_count, require_fraction)
from .ipm import ETA_RANK, ETA_SUPP, IpmParams, Solution, ipm_solve, sparse_init
from .newton import NewtonParams
from .objective import BarrierObjective, Iterate, ProblemData, _Block, sample_covariance
from .symbasis import SymmetricBasis, require_symmetric
from .trace import write_trace_csv

RUN_DIR_ENV = "LSFA_RUN_DIR"
# solver-parameter field -> the RunConfig field that sets it, where the names
# differ; every other IpmParams and BaselineParams field has a RunConfig field
# of its own name
_RENAMED = {"max_iters": "bcd_max_iters"}
# every run_* raises FloatingPointError on an overflow or invalid operation (an
# input of extreme magnitude) instead of going on with non-finite numbers;
# ipm_solve and bcd_solve called directly follow the caller's numpy errstate
_RAISE_ON_FP_ERROR = np.errstate(over="raise", invalid="raise", divide="raise")
# the failures that leave no usable fit: the CLI exits 4 on them, run_cv
# scores the fold inf; a fit's LinAlgError comes only from np.linalg.eigvalsh,
# in sparse_init and recover_solution
FIT_FAILURES = (DataError, InfeasiblePointError, NumericalBreakdownError, FloatingPointError,
                np.linalg.LinAlgError)


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
    eps: float = IpmParams.eps
    residual_tol: float = NewtonParams.residual_tol
    max_inner_iters: int = NewtonParams.max_inner_iters
    eta_rank: float = ETA_RANK
    eta_supp: float = ETA_SUPP
    # first-order baseline
    bcd_max_iters: int = BaselineParams.max_iters
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
        build.  Checked here are the fields no parameter class holds (the
        read-out thresholds, which ipm_solve checks too, here before any file
        is read), and bcd_max_iters, which BaselineParams knows as max_iters
        (_RENAMED), so that the error names the field that was set.
        """
        # a read-out keeps the values above this share of the largest one
        require_fraction(eta_rank=self.eta_rank, eta_supp=self.eta_supp)
        require_count(p=self.p, r=self.r, n=self.n, bcd_max_iters=self.bcd_max_iters)
        require_count(2, folds=self.folds)
        require_count(0, seed=self.seed)
        for name in ("c_grid", "mu_grid"):
            grid = getattr(self, name)
            if not grid or not all(0 < x < math.inf for x in grid):
                raise ConfigError(f"{name} must be non-empty with finite positive entries")
        check_instance(self.p, self.r, self.density, self.snr)
        ProblemData.check_weights(self.C, self.mu)
        self.ipm_params()
        self.baseline_params()
        return self

    def _params(self, cls):
        """An instance of the parameter class cls with every field read from this config."""
        return cls(**{f.name: getattr(self, _RENAMED.get(f.name, f.name)) for f in fields(cls)})

    def ipm_params(self) -> IpmParams:
        return self._params(IpmParams)

    def baseline_params(self) -> BaselineParams:
        return self._params(BaselineParams)

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def problem_file(self) -> str:
        """The file load_problem reads: the covariance file if one is set, else the samples."""
        return self.path(self.covariance_file or self.samples_file)


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
    """The matrix in a CSV file; DataError when the file is not a numeric matrix or is empty."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as a DataError, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # ndmin=2 keeps one column N x 1 and one row 1 x N
            M = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path} is not a numeric CSV matrix: {exc}") from exc
    if M.size == 0:
        raise DataError(f"{path} holds no numbers")
    return M


def _emit_summary(label: str, summary: dict, path: str | None = None) -> None:
    """Print `label: <summary>` as one line of JSON, and write it indented to path if given.

    JSON holds no NaN or infinity: each, at any depth, is written as null.
    """
    summary = json.loads(json.dumps(summary), parse_constant=lambda _: None)
    if path is not None:
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)
    print(f"{label}:", json.dumps(summary, allow_nan=False))


@_RAISE_ON_FP_ERROR
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
    _emit_summary("generated instance", summary)
    return summary


@contextlib.contextmanager
def _covariance_from(source: str):
    """Re-raise a DataError met while reading or using `source` as one that names the file."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"cannot use the covariance from {source!r}: {exc}") from exc


def load_problem(config: RunConfig) -> ProblemData:
    """Build ProblemData from the configured covariance or samples file."""
    source = config.problem_file()
    with _covariance_from(source):
        matrix = read_matrix_csv(source)
        sigma = matrix if config.covariance_file is not None else sample_covariance(matrix)
        return ProblemData(sigma, C=config.C, mu=config.mu)


def _fit(config: RunConfig, problem: ProblemData) -> tuple[tuple[np.ndarray, np.ndarray], Solution]:
    """The pipelines' fit: the sparse start and the interior-point solve from it.

    ipm_solve is looked up in this module at each call, so replacing
    lsfa.harness.ipm_solve observes every fit the pipelines make.
    """
    params = config.ipm_params()
    start = sparse_init(problem, params)
    return start, ipm_solve(problem, start, params, eta_rank=config.eta_rank,
                            eta_supp=config.eta_supp)


@_RAISE_ON_FP_ERROR
def run_solve(config: RunConfig) -> Solution:
    """Full interior-point solve; writes solution matrices and the trace."""
    config.validate()
    problem = load_problem(config)
    _, solution = _fit(config, problem)
    os.makedirs(config.run_dir, exist_ok=True)
    write_matrix_csv(config.path("L_star.csv"), solution.L_star)
    write_matrix_csv(config.path("S_star.csv"), solution.S_star)
    write_trace_csv(solution.traces, config.path(config.trace_out))
    summary = {
        "status": solution.status,
        "outer_solves": solution.n_outer,
        "inner_iterations": solution.n_inner_total,
        "final_tau": solution.final_tau,
        "final_residual_normalized": solution.final_residual_normalized,
        "rank_estimate": solution.rank_estimate,
        # sparsity: matrix entries (off-diagonal counted twice) and coordinates
        "l0_matrix_entries": int(np.count_nonzero(solution.S_star)),
        "l0_coordinates": int(np.count_nonzero(solution.s_star)),
    }
    _emit_summary("solve summary", summary)
    return solution


@_RAISE_ON_FP_ERROR
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
            "iterations_to_tol": (
                bcd_result.n_iters if bcd_result.status == "converged" else None
            ),
            "final_residual_normalized": bcd_result.residual.norm_normalized,
        },
    }
    _emit_summary("compare summary", summary, config.path("summary.json"))
    return summary


def gaussian_nll(samples: np.ndarray, cov: np.ndarray) -> float:
    """Mean negative log-likelihood of zero-mean Gaussian samples under cov.

    Raises:
        DataError: cov is not square or not symmetric
            (symbasis.require_symmetric).
        InfeasiblePointError: cov is not positive definite.
    """
    what = "the fitted covariance"
    block = _Block(require_symmetric(cov, what), what)
    # y' cov^{-1} y = ||C^-1 y||^2 with cov = C C^T, averaged over rows
    z = block.chol_inv @ samples.T
    quad = float(np.mean(np.sum(z * z, axis=0)))
    return 0.5 * (quad + block.logdet + len(block.M) * math.log(2.0 * math.pi))


@_RAISE_ON_FP_ERROR
def run_cv(config: RunConfig) -> dict:
    """K-fold grid search over (C, mu) scored by held-out Gaussian NLL."""
    config.validate()
    source = config.path(config.samples_file)
    with _covariance_from(source):
        samples = read_matrix_csv(source)
        # checked once here: a file every fold's covariance rejects would
        # otherwise score each grid point inf without saying why
        sample_covariance(samples)
    n, p = samples.shape
    if config.folds > n:
        # a fold without samples has no held-out likelihood to score
        raise ConfigError(f"folds={config.folds} exceeds the {n} samples in {config.samples_file}")
    if n // config.folds < p:
        warnings.warn(
            f"fold size {n // config.folds} is below p={p}; per-fold sample "
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
                # a grid point whose fit fails, aborts or stalls (a level that
                # hit the step cap or ended "stalled", both "iteration-cap")
                # is not a usable configuration; rank it behind every fit
                # that completed its barrier schedule
                score = math.inf
                with contextlib.suppress(*FIT_FAILURES):
                    problem = ProblemData(sample_covariance(samples[train_idx]), C=C, mu=mu)
                    _, solution = _fit(config, problem)
                    if solution.status == "converged":
                        score = gaussian_nll(samples[val_idx], solution.L_star + solution.S_star)
                scores.append(score)
            table.append({"C": C, "mu": mu, "score": float(np.mean(scores))})

    best = min(table, key=lambda row: row["score"])
    os.makedirs(config.run_dir, exist_ok=True)
    with open(config.path("cv_scores.csv"), "w") as fh:
        fh.write("C,mu,score\n")
        for row in table:
            fh.write(f"{row['C']:.17g},{row['mu']:.17g},{row['score']:.17g}\n")
    result = {"best_C": best["C"], "best_mu": best["mu"], "best_score": best["score"]}
    _emit_summary("cv result", result)
    return {**result, "table": table}
