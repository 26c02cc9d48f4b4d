"""The full interior-point path on a synthetic instance.

Runs the outer loop with the geometric barrier schedule from the sparse start
(sparse_init, the start the command-line pipelines use), then summarizes the
path: inner iterations per barrier level, the smooth objective along the
way, and what the final matrices look like (spectrum of the low-rank block,
sparsity of the noise block, recovery scores against the generating truth).

How much structure the solver recovers depends strongly on the weights: the
keep-threshold sqrt(2*gamma*C) decides which noise entries survive, and mu
balances data fit against the trace penalty on the low-rank block.  At this
problem size the factor and noise scales overlap, so recovery is partial;
see the README for the tuning discussion.
"""

import numpy as np

from lsfa import (
    IpmParams,
    ProblemData,
    generate_ground_truth,
    ipm_solve,
    recovery_metrics,
    sample_covariance,
    sample_observations,
    sparse_init,
)

truth = generate_ground_truth(p=12, r=3, density=0.08, snr=1.0, seed=2)
samples = sample_observations(truth, 3000, seed=3)
problem = ProblemData(sample_covariance(samples), C=1.0, mu=20.0)

params = IpmParams(gamma=0.25, tau0=0.5, theta=0.5, epsilon=1e-6)
solution = ipm_solve(problem, sparse_init(problem, params), params)

print(f"status: {solution.status}; {solution.n_outer} barrier levels, "
      f"{solution.n_inner_total} Newton iterations total\n")
print(f"{'tau':>12} {'inner':>6} {'f(L,S)':>14} {'support':>8}")
for outer in range(solution.n_outer):
    rows = [r for r in solution.traces if r.outer_iter == outer]
    if rows:
        print(f"{rows[0].tau:>12.3e} {len(rows):>6} {rows[-1].objective_f:>14.6f} "
              f"{rows[-1].support_size:>8}")

eigs = np.linalg.eigvalsh(solution.L_star)[::-1]
print("\nlow-rank block eigenvalues (descending):", np.round(eigs[:8], 4), "...")
print("rank estimate:", solution.rank_estimate)
print("sparse block nonzero entries:", int(solution.support.sum()), "of",
      solution.S_star.size)
metrics = recovery_metrics(solution, truth)
print("recovery metrics:", {k: round(v, 4) if isinstance(v, float) else v
                            for k, v in metrics.items()})
