"""Second-order vs first-order convergence on the same fixed-barrier problem.

The baseline alternates gradient and prox-gradient steps; the interior-point
method spends a few Newton iterations per barrier level.  Both chase the
same stationarity residual, so plotting residual against iteration count
compares them directly.  The traces are written as CSV next to this script
for external plotting.
"""

from lsfa import (
    BarrierObjective,
    BaselineParams,
    IpmParams,
    Iterate,
    ProblemData,
    SymmetricBasis,
    bcd_solve,
    default_init,
    generate_ground_truth,
    ipm_solve,
    sample_covariance,
    sample_observations,
    write_trace_csv,
)

truth = generate_ground_truth(p=10, r=2, density=0.1, snr=1.0, seed=4)
samples = sample_observations(truth, 2000, seed=5)
problem = ProblemData(sample_covariance(samples), C=0.5, mu=20.0)

ipm_solution = ipm_solve(problem, default_init(problem), IpmParams(gamma=0.1))
print(f"IPM: {ipm_solution.status} with {ipm_solution.n_inner_total} total inner "
      f"iterations across {ipm_solution.n_outer} barrier levels")

basis = SymmetricBasis(10)
L0, S0 = default_init(problem)
init = Iterate.from_matrices(L0, S0, basis)
barrier = BarrierObjective(problem, ipm_solution.final_tau)
bcd = bcd_solve(init, barrier, BaselineParams(gamma=0.1, max_iters=20000))
to_tol = next((r.inner_iter for r in bcd.rows if r.residual_normalized <= 1e-4), None)
print(f"BCD at the final barrier level: {bcd.status}; iterations to 1e-4: "
      f"{to_tol if to_tol is not None else f'not reached in {bcd.n_iters}'}")

write_trace_csv(ipm_solution.traces, "ipm_trace.csv")
write_trace_csv(bcd.rows, "bcd_trace.csv")
print("traces written to ipm_trace.csv / bcd_trace.csv "
      "(columns: iteration vs residual_normalized)")

# compact text view of the residual decay
marks = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000]
print("\nresidual by iteration:")
print(f"{'iter':>6} {'IPM':>12} {'BCD':>12}")
ipm_res = [r.residual_normalized for r in ipm_solution.traces]
bcd_res = [r.residual_normalized for r in bcd.rows]
for mark in marks:
    a = f"{ipm_res[mark - 1]:.3e}" if mark <= len(ipm_res) else "-"
    b = f"{bcd_res[mark - 1]:.3e}" if mark <= len(bcd_res) else "-"
    print(f"{mark:>6} {a:>12} {b:>12}")
