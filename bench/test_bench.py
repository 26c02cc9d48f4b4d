"""Fast self-test of the benchmark on tiny instances (p=6, short barrier schedule).

Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import lsfa  # noqa: E402
from lsfa import BarrierObjective, Iterate, SymmetricBasis, TraceRow, default_init  # noqa: E402
from lsfa.harness import RunConfig  # noqa: E402

import runner  # noqa: E402
from spans import Tracer, layer_self_seconds  # noqa: E402
from speed import SpeedLog, probing  # noqa: E402
from workloads import BcdWorkload, CvWorkload, IpmWorkload, barrier_schedule  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Six barrier levels (0.5 down to 0.5**6 > 0.01) on a p=6 instance.
TINY = dict(p=6, r=2, n=200, eps=1e-2, C=0.1, gamma=0.1, mu=10.0)


def tiny_workload(name, scratch):
    if name == "ipm_p40":
        return IpmWorkload(RunConfig(**TINY), seed=3, reference=None)
    if name == "bcd_p40":
        return BcdWorkload(RunConfig(**TINY, bcd_max_iters=20), seed=3)
    return CvWorkload(RunConfig(**TINY, c_grid=(0.02, 0.5), mu_grid=(10.0,), folds=2),
                      seed=3, scratch_root=str(scratch))


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def traced_run(request, tmp_path_factory):
    workload = tiny_workload(request.param, tmp_path_factory.mktemp("runs"))
    try:
        yield runner.measure(workload, request.param, seconds=0.0, trace=True)
    finally:
        getattr(workload, "close", lambda: None)()


def test_every_named_metric_is_emitted_with_its_unit(traced_run):
    assert traced_run.failed == 0, traced_run.failures
    for group in ("end_to_end", "per_layer"):
        line = json.loads(runner.result_line(traced_run, [m["name"] for m in SPEC[group]]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        for metric in SPEC[group]:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert math.isfinite(emitted["value"]), metric["name"]


def test_layer_self_times_sum_to_at_most_the_traced_wall_time(traced_run):
    assert traced_run.body_spans
    self_s = layer_self_seconds(traced_run.body_spans)
    assert all(v >= 0 for v in self_s.values()), self_s
    assert sum(self_s.values()) <= traced_run.metrics["trace.wall_s"][0]


def _rows_without_stamps(rows):
    names = [f.name for f in fields(TraceRow) if f.name != "wall_time_ns"]
    return [tuple(getattr(row, n) for n in names) for row in rows]


def _tiny_problem():
    workload = IpmWorkload(RunConfig(**TINY), seed=3, reference=None)
    workload.setup()
    return workload.problem


def test_traced_ipm_solve_is_bit_identical_to_untraced():
    problem = _tiny_problem()
    params = RunConfig(**TINY).ipm_params()
    originals = (lsfa.ipm_solve, lsfa.newton.scipy, SymmetricBasis.__dict__["sym_kron"])
    plain = lsfa.ipm_solve(problem, default_init(problem), params)
    tracer = Tracer("selftest")
    with tracer.installed():
        traced = lsfa.ipm_solve(problem, default_init(problem), params)
    restored = (lsfa.ipm_solve, lsfa.newton.scipy, SymmetricBasis.__dict__["sym_kron"])
    assert all(a is b for a, b in zip(restored, originals))
    names = {s.name for s in tracer.spans}
    assert {"ipm_solve", "solve_tau_min", "sym_kron", "cho_factor", "Iterate"} <= names
    assert _rows_without_stamps(traced.traces) == _rows_without_stamps(plain.traces)
    for attr in ("L_star", "S_star", "ell_star", "s_star", "support"):
        assert np.array_equal(getattr(traced, attr), getattr(plain, attr)), attr
    assert (traced.status, traced.n_outer) == (plain.status, plain.n_outer)
    assert traced.n_outer == len(barrier_schedule(RunConfig(**TINY)))


def test_traced_bcd_solve_is_bit_identical_to_untraced():
    problem = _tiny_problem()
    basis = SymmetricBasis(problem.p)
    barrier = BarrierObjective(problem, 0.01)
    params = RunConfig(**TINY, bcd_max_iters=20).baseline_params()
    plain = lsfa.bcd_solve(Iterate.from_matrices(*default_init(problem), basis), barrier, params)
    tracer = Tracer("selftest")
    with tracer.installed():
        traced = lsfa.bcd_solve(Iterate.from_matrices(*default_init(problem), basis), barrier, params)
    assert {"bcd_solve", "grad_h_tau", "eval_h_tau", "Iterate"} <= {s.name for s in tracer.spans}
    assert _rows_without_stamps(traced.rows) == _rows_without_stamps(plain.rows)
    assert np.array_equal(traced.iterate.ell, plain.iterate.ell)
    assert np.array_equal(traced.iterate.s, plain.iterate.s)


def test_normalized_time_leaves_out_probes_and_divides_by_slowness():
    log = SpeedLog(("small",))
    probe_ns = int(2 * log._kernel.ref_s * 1e9)  # every probe runs at half the reference speed
    for t0 in (0, 10**9, 2 * 10**9):
        log.starts.append(t0)
        log.ends.append(t0 + probe_ns)
    assert log.raw_s(0, 3 * 10**9) == pytest.approx(3 - 3 * probe_ns / 1e9)
    assert log.normalized_s(0, 3 * 10**9) == pytest.approx(log.raw_s(0, 3 * 10**9) / 2)
    assert log.normalized_s(probe_ns, 10**9) == pytest.approx((10**9 - probe_ns) / 2e9)


def test_probing_restores_the_solver_entry_points():
    originals = (lsfa.newton.newton_direction, lsfa.baseline.grad_h_tau)
    log = SpeedLog(("small",))
    log.probe()
    with probing(log, period_s=0.0):
        assert lsfa.newton.newton_direction is not originals[0]
        problem = _tiny_problem()
        lsfa.ipm_solve(problem, default_init(problem), RunConfig(**TINY).ipm_params())
    assert (lsfa.newton.newton_direction, lsfa.baseline.grad_h_tau) == originals
    assert len(log.starts) > 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bcd_p40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
