"""The benchmark's workloads: instance set-up, one timed operation, and its checks.

Every workload solves a fixed instance drawn with the acceptance seeds
(truth seed 7, sample seed 8).  The benchmark's ``--seed`` draws a
permutation of the p variables (a stream of them for ``bcd_p40``, see
:class:`BcdWorkload`), and the program receives the permuted samples.  A
permuted instance is the same estimation problem in another variable order: it takes the same iterations and reaches the same objective
up to rounding (checked: 111 Newton steps and objective -4786.5493 on
several permutations of the p=40 instance), but its inputs differ bit for
bit.  Work per run therefore depends on the program, not on the seed, and
the recorded reference objective holds for every seed.

Each workload is a closed loop with one client: operations run back to back
in one process, each waiting for the previous one.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

import lsfa
import lsfa.harness
from lsfa import BarrierObjective, Iterate, ProblemData, SymmetricBasis, default_init, eval_f
from lsfa import recovery_metrics, sample_covariance
from lsfa.harness import RunConfig, read_matrix_csv, write_matrix_csv

# The traced entry points (generator, solvers, harness pipelines) are called
# through their module, `lsfa.ipm_solve` and not a name bound here, so that
# the tracer's wrappers see these calls too.

# The acceptance instance's seed; samples use INSTANCE_SEED + 1, as in run_generate.
INSTANCE_SEED = 7
# The fit statuses ipm_solve documents.
FIT_STATUSES = ("converged", "iteration-cap", "line-search-failure")
# `objective` may exceed the recorded reference by at most this share of it:
# less than one extra nonzero coordinate (C = 0.5) at the p=40 instance.
OBJECTIVE_RTOL = 1e-4
_TRACE_FLOATS = ("tau", "objective_h_tau", "objective_f", "residual_normalized", "step_alpha")


@dataclass
class OpResult:
    """One operation: its timed body's clock stamps, accepted-step intervals, and checks."""

    start_ns: int
    end_ns: int
    steps: list[tuple[int, int]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def barrier_schedule(cfg: RunConfig) -> list[float]:
    """The barrier levels tau0 * theta^k > eps that ipm_solve visits."""
    taus, k = [], 0
    while (tau := cfg.tau0 * cfg.theta**k) > cfg.eps:
        taus.append(tau)
        k += 1
    return taus


def step_intervals(rows) -> list[tuple[int, int]]:
    """(start_ns, end_ns) of the accepted steps of one solve, from consecutive trace stamps."""
    stamps = [row.wall_time_ns for row in rows]
    return list(zip(stamps, stamps[1:]))


def penalized_objective(L, S, s, problem: ProblemData) -> float:
    """f(L, S) + C * nnz(s), with nnz counted over basis coordinates."""
    return eval_f(L, S, problem) + problem.C * int(np.count_nonzero(s))


def trace_failures(rows, label: str) -> list[str]:
    bad = [row.inner_iter for row in rows
           if not all(math.isfinite(getattr(row, name)) for name in _TRACE_FLOATS)]
    return [f"{label}: non-finite trace values at steps {bad[:5]}"] if bad else []


def _variable_orders(seed: int, p: int, count: int = 1) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.permutation(p) for _ in range(count)]


def _acceptance_samples(cfg: RunConfig):
    """Ground truth and samples of the acceptance instance of size cfg.p."""
    truth = lsfa.generate_ground_truth(cfg.p, cfg.r, cfg.density, cfg.snr, INSTANCE_SEED)
    return truth, lsfa.sample_observations(truth, cfg.n, INSTANCE_SEED + 1)


def _permuted_problem(cfg: RunConfig, samples, order) -> ProblemData:
    return ProblemData(sample_covariance(samples[:, order]), C=cfg.C, mu=cfg.mu)


def _permuted_truth(truth, order):
    ix = np.ix_(order, order)
    return replace(truth, Gamma=truth.Gamma[order], S_hat=truth.S_hat[ix],
                   Sigma_hat=truth.Sigma_hat[ix], support_mask=truth.support_mask[ix])


class IpmWorkload:
    """One full ipm_solve from default_init on the p=40 acceptance instance."""

    # sym_kron gathers and the reduced Cholesky do 85% of the work (speed.py).
    # A small-matrix part would make the probe swing more than this workload.
    probe_parts = ("gather", "cholesky")

    def __init__(self, cfg: RunConfig, seed: int, reference: float | None):
        self.cfg = cfg
        self.seed = seed
        self.reference = reference

    def setup(self):
        truth, samples = _acceptance_samples(self.cfg)
        [order] = _variable_orders(self.seed, self.cfg.p)
        self.problem = _permuted_problem(self.cfg, samples, order)
        self.truth = _permuted_truth(truth, order)

    def run(self) -> OpResult:
        cfg, problem = self.cfg, self.problem
        init = default_init(problem)
        t0 = time.perf_counter_ns()
        sol = lsfa.ipm_solve(problem, init, cfg.ipm_params(), eta_rank=cfg.eta_rank, eta_supp=cfg.eta_supp)
        t1 = time.perf_counter_ns()
        objective = penalized_objective(sol.L_star, sol.S_star, sol.s_star, problem)
        out = OpResult(t0, t1, step_intervals(sol.traces), {
            "objective": objective,
            "support_fscore": recovery_metrics(sol, self.truth)["support_fscore"],
        })
        expected_outer = len(barrier_schedule(cfg))
        if sol.status != "converged":
            out.failures.append(f"status {sol.status!r}, expected 'converged'")
        if sol.n_outer != expected_outer:
            out.failures.append(f"{sol.n_outer} outer solves, expected {expected_outer}")
        if not sol.final_residual_normalized <= cfg.residual_tol:
            out.failures.append(
                f"final residual {sol.final_residual_normalized:.3e} > {cfg.residual_tol:g}")
        out.failures += trace_failures(sol.traces, "ipm trace")
        if self.reference is not None:
            limit = self.reference + OBJECTIVE_RTOL * abs(self.reference)
            if not objective <= limit:
                out.failures.append(
                    f"objective {objective:.6f} worse than the recorded {self.reference:.6f}")
        else:
            basis = SymmetricBasis(problem.p)
            L0, S0 = init
            start = penalized_objective(L0, S0, basis.mat_to_vec(S0), problem)
            if not objective < start:
                out.failures.append(f"objective {objective:.6f} not below the start's {start:.6f}")
        return out


class BcdWorkload:
    """bcd_solve from default_init at the IPM's final barrier level, fixed iteration count.

    Its backtracking depends on rounding: variable orders of the instance
    took from 8368 to 9585 trial iterates over 500 iterations.  So every
    operation solves the instance in the next variable order of a stream
    drawn from the seed, and a run's times average over as many orders as it
    makes operations.
    """

    # Trial Iterate constructions and objective evaluations on 40 x 40 matrices.
    probe_parts = ("small",)

    def __init__(self, cfg: RunConfig, seed: int):
        self.cfg = cfg
        self.seed = seed

    def setup(self):
        _, self.samples = _acceptance_samples(self.cfg)
        self.orders = np.random.default_rng(self.seed)

    def run(self) -> OpResult:
        cfg = self.cfg
        problem = _permuted_problem(cfg, self.samples, self.orders.permutation(cfg.p))
        basis = SymmetricBasis(problem.p)
        init = Iterate.from_matrices(*default_init(problem), basis)
        barrier = BarrierObjective(problem, barrier_schedule(cfg)[-1])
        params = cfg.baseline_params()
        t0 = time.perf_counter_ns()
        result = lsfa.bcd_solve(init, barrier, params)
        t1 = time.perf_counter_ns()
        it = result.iterate
        out = OpResult(t0, t1, step_intervals(result.rows), {
            "objective": penalized_objective(it.L, it.S, it.s, problem),
        })
        if result.n_iters != params.max_iters:
            out.failures.append(
                f"{result.n_iters} iterations ({result.status}), expected {params.max_iters}")
        out.failures += trace_failures(result.rows, "bcd trace")
        h = [row.objective_h_tau for row in result.rows]
        rises = [k + 2 for k in range(len(h) - 1) if h[k + 1] > h[k]]
        if rises:
            out.failures.append(f"objective_h_tau increased at iterations {rises[:5]}")
        return out


@contextlib.contextmanager
def _fits_recorded(statuses: list[str], solutions: list):
    """Record the outcome of every ipm_solve that run_cv makes."""
    inner = lsfa.harness.ipm_solve

    def recording(*args, **kwargs):
        try:
            sol = inner(*args, **kwargs)
        except Exception as exc:
            statuses.append(f"raised {type(exc).__name__}")
            raise
        statuses.append(sol.status)
        solutions.append(sol)
        return sol

    lsfa.harness.ipm_solve = recording
    try:
        yield
    finally:
        lsfa.harness.ipm_solve = inner


class CvWorkload:
    """harness.run_cv on a p=20 instance that run_generate writes to a run directory."""

    # Many small Newton systems: sym_kron, K assembly, Cholesky and per-call overhead.
    probe_parts = ("gather", "cholesky", "small")

    def __init__(self, cfg: RunConfig, seed: int, scratch_root: str):
        self.cfg = cfg
        self.seed = seed
        self.scratch_root = scratch_root
        self.run_dir = None

    def setup(self):
        if self.run_dir is None:
            os.makedirs(self.scratch_root, exist_ok=True)
            self.run_dir = tempfile.mkdtemp(prefix="cv-", dir=self.scratch_root)
        cfg = replace(self.cfg, seed=INSTANCE_SEED, run_dir=self.run_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            lsfa.harness.run_generate(replace(cfg, samples_file="generated.csv"))
        samples = read_matrix_csv(cfg.path("generated.csv"))
        write_matrix_csv(cfg.path(cfg.samples_file), samples[:, _variable_orders(self.seed, cfg.p)[0]])
        self.run_cfg = cfg

    def close(self):
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            self.run_dir = None

    def run(self) -> OpResult:
        cfg = self.run_cfg
        statuses: list[str] = []
        solutions: list = []
        with _fits_recorded(statuses, solutions), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            result = lsfa.harness.run_cv(cfg)
            t1 = time.perf_counter_ns()
        out = OpResult(t0, t1, [d for sol in solutions for d in step_intervals(sol.traces)], {
            "heldout_nll": result["best_score"],
            "fits": len(statuses),
            "fits_inf": sum(1 for status in statuses if status != "converged"),
        })
        grid = set(itertools.product(cfg.c_grid, cfg.mu_grid))
        table = {(row["C"], row["mu"]) for row in result["table"]}
        if table != grid or len(result["table"]) != len(grid):
            out.failures.append(f"cv table covers {sorted(table)}, expected {sorted(grid)}")
        if len(statuses) != len(grid) * cfg.folds:
            out.failures.append(f"{len(statuses)} fits, expected {len(grid) * cfg.folds}")
        odd = [status for status in statuses if status not in FIT_STATUSES]
        if odd:
            out.failures.append(f"undocumented fit outcomes {odd}")
        if not math.isfinite(result["best_score"]):
            out.failures.append(f"best score {result['best_score']} is not finite")
        return out


# Workload parameters.  ipm_p40 and bcd_p40 run the acceptance configuration
# (RunConfig defaults: p=40, r=5, N=1200, C=0.5, mu=100, gamma=0.1,
# theta=0.5, eps=1e-6, residual_tol=1e-4).
BCD_ITERS = 500
CV_CONFIG = dict(p=20, c_grid=(0.25, 1.0), mu_grid=(100.0,), folds=2)


def make_workload(name: str, seed: int, scratch_root: str, reference: float | None):
    if name == "ipm_p40":
        return IpmWorkload(RunConfig(), seed, reference)
    if name == "bcd_p40":
        return BcdWorkload(RunConfig(bcd_max_iters=BCD_ITERS), seed)
    if name == "cv_p20":
        return CvWorkload(RunConfig(**CV_CONFIG), seed, scratch_root)
    raise ValueError(f"unknown workload {name!r}")

