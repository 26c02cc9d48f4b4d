"""Benchmark of the lsfa solver: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload ipm_p40 --seed 7 --seconds 20 --trace 0

It prints a report of every metric with its unit and sample count, writes a
result file under .bench_results/, and ends with one JSON line holding the
metrics BENCHMARK.json names: its `end_to_end` list with --trace 0, its
`per_layer` list with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# BLAS threads are pinned before numpy loads, so results do not depend on the
# caller's shell.  One thread: on a 2-core machine a second BLAS thread spins
# against the interpreter's own; in trials set-up took 8-24 ms with two threads
# and 4.2-4.6 ms with one.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("ipm_p40", "cv_p20", "bcd_p40")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="draws the variable order of the instance (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run operations back to back for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run one traced operation and report per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lsfa").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no lsfa sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

    import runner
    from workloads import make_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    out_dir = ROOT / ".bench_results"
    workload = make_workload(args.workload, args.seed, str(out_dir / "tmp"),
                             reference.get(args.workload, {}).get("objective"))
    try:
        m = runner.measure(workload, args.workload, args.seconds, bool(args.trace))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    env = runner.environment(ROOT, BLAS_THREADS)
    path = runner.write_results(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}",
                                args.workload, args.seed, args.seconds, m, env)
    print("\n".join(runner.report_lines(args.workload, args.seed, m, env)))
    print(f"  result file: {path.relative_to(ROOT)}")
    print(runner.result_line(m, names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
