"""Print a SHA-256 fingerprint of each of lsfa's reference runs.

A change that claims to keep every output bit-identical prints the same
hashes as its parent.  Run from the repository root (or anywhere; the script
imports the lsfa sources next to it):

    python tests/fingerprint.py

The runs, on the acceptance instance (p=40, generator seeds 7/8) unless
stated:
- ipm_solve from default_init at theta 0.5 and at 0.8, hashing the solution's
  matrices, status and counts, and every trace row but its clock stamp;
- 500 bcd_solve iterations from default_init at the theta=0.5 solve's final
  barrier level, hashing the last iterate and every trace row likewise;
- criterion 9's run_cv(RunConfig()) in a temporary run directory, hashing the
  score table;
- the p=10 sweep: generate_ground_truth(10, 2, density, 1.0, seed) for seeds
  0-19 and (density, mu) in (0.1, 100), (0.2, 100) and (0.1, 300), C=0.5,
  300 samples drawn with seed + 1, RunConfig().ipm_params(), from
  default_init and from sparse_init, hashing each fit's status, step count
  and matrices.

Each line names a run, its hash and a readable summary.  The BLAS libraries
are pinned to one thread before numpy loads, as the suite's conftest.py
does, since a second thread may change the rounding.  The script writes only
to a temporary directory.  It takes about 6 s on one core.
"""

import contextlib
import hashlib
import io
import os
import struct
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lsfa import (BarrierObjective, Iterate, ProblemData, SymmetricBasis, bcd_solve,  # noqa: E402
                  default_init, generate_ground_truth, ipm_solve, sample_covariance,
                  sample_observations, sparse_init)
from lsfa.harness import RunConfig, run_cv, run_generate  # noqa: E402
from lsfa.trace import TRACE_COLUMNS  # noqa: E402

# every trace column but the clock stamp, which no two runs share
_ROW_COLUMNS = [name for name in TRACE_COLUMNS if name != "wall_time_ns"]
SWEEP_SETTINGS = ((0.1, 100.0), (0.2, 100.0), (0.1, 300.0))


class Digest:
    """A SHA-256 over a sequence of values, each fed with its type and exact bits."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for value in values:
            if isinstance(value, np.ndarray):
                array = np.ascontiguousarray(value)
                self._sha.update(f"array {array.dtype.str} {array.shape}:".encode())
                self._sha.update(array.tobytes())
            elif isinstance(value, (float, np.floating)):
                self._sha.update(b"float:" + struct.pack("<d", float(value)))
            elif isinstance(value, (int, np.integer, str)):
                self._sha.update(f"{type(value).__name__} {value};".encode())
            else:
                raise TypeError(f"cannot fingerprint a {type(value).__name__}")
        return self

    def add_rows(self, rows) -> "Digest":
        for row in rows:
            self.add(*(getattr(row, name) for name in _ROW_COLUMNS))
        return self

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _acceptance_problem() -> ProblemData:
    truth = generate_ground_truth(p=40, r=5, density=0.05, snr=1.0, seed=7)
    samples = sample_observations(truth, 1200, seed=8)
    return ProblemData(sample_covariance(samples), C=0.5, mu=100.0)


def _solution_digest(solution) -> Digest:
    return Digest().add(
        solution.status, solution.n_outer, solution.final_tau, solution.final_residual_normalized,
        solution.rank_estimate, solution.L_star, solution.S_star, solution.ell_star,
        solution.s_star, solution.support,
    ).add_rows(solution.traces)


def ipm_runs(problem: ProblemData):
    """(name, digest, summary) of the two acceptance solves, and the theta=0.5 solution."""
    runs, solutions = [], {}
    for theta in (0.5, 0.8):
        solution = ipm_solve(problem, default_init(problem), RunConfig(theta=theta).ipm_params())
        solutions[theta] = solution
        runs.append((f"ipm theta={theta}", _solution_digest(solution),
                     f"{solution.status}, {solution.n_outer} solves, "
                     f"{solution.n_inner_total} steps"))
    return runs, solutions[0.5]


def bcd_run(problem: ProblemData, final_tau: float):
    init = Iterate.from_matrices(*default_init(problem), SymmetricBasis(problem.p))
    params = RunConfig(bcd_max_iters=500).baseline_params()
    result = bcd_solve(init, BarrierObjective(problem, final_tau), params)
    it = result.iterate
    digest = Digest().add(result.status, it.ell, it.s).add_rows(result.rows)
    return ("bcd 500 iterations", digest,
            f"{result.status}, h_tau {result.rows[-1].objective_h_tau!r}")


def cv_run():
    with tempfile.TemporaryDirectory() as run_dir, contextlib.redirect_stdout(io.StringIO()):
        config = RunConfig(run_dir=run_dir)
        run_generate(config)
        cv = run_cv(config)
    digest = Digest()
    for row in cv["table"]:
        digest.add(row["C"], row["mu"], row["score"])
    return ("cv RunConfig()", digest,
            f"best C={cv['best_C']}, mu={cv['best_mu']} at {cv['best_score']!r}")


def sweep_run():
    digest, statuses, steps = Digest(), Counter(), 0
    params = RunConfig().ipm_params()
    for seed in range(20):
        for density, mu in SWEEP_SETTINGS:
            truth = generate_ground_truth(10, 2, density, 1.0, seed)
            samples = sample_observations(truth, 300, seed=seed + 1)
            problem = ProblemData(sample_covariance(samples), C=0.5, mu=mu)
            for start in (default_init(problem), sparse_init(problem, params)):
                solution = ipm_solve(problem, start, params)
                digest.add(solution.status, solution.n_inner_total, solution.L_star,
                           solution.S_star)
                statuses[solution.status] += 1
                steps += solution.n_inner_total
    counts = ", ".join(f"{n} {status}" for status, n in sorted(statuses.items()))
    return "sweep p=10", digest, f"{counts} in {steps} steps"


def main() -> int:
    problem = _acceptance_problem()
    runs, solution = ipm_runs(problem)
    runs.append(bcd_run(problem, solution.final_tau))
    runs.append(cv_run())
    runs.append(sweep_run())
    for name, digest, summary in runs:
        print(f"{name:<20} {digest.hexdigest()}  {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
