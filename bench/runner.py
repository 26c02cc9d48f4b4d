"""Measure one workload: repeated set-up, timed operations, optional traced run.

End-to-end metrics come from untraced operations.  With tracing on, one more
set-up and one more operation run under a :class:`spans.Tracer`, and the
per-layer metrics are read from their spans; the tracing overhead is that
operation's wall time minus the untraced raw median.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, layer_metrics
from speed import SpeedLog, probing
from workloads import OpResult

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 15
_QUALITY_UNITS = {"objective": "f+C*nnz", "support_fscore": "ratio", "heldout_nll": "nats",
                  "fits": "count", "fits_inf": "count"}


@dataclass
class Measurement:
    """Everything one run measured; `metrics` maps name -> (value, unit)."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int]
    failures: list[str] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)
    tracer: Tracer | None = None
    body_spans: list = field(default_factory=list)  # traced spans inside the timed body


def _attempt(workload) -> OpResult:
    """Run one operation; an exception counts as a failed operation."""
    t0 = time.perf_counter_ns()
    try:
        return workload.run()
    except Exception:
        return OpResult(t0, time.perf_counter_ns(), failures=[traceback.format_exc()])


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def measure(workload, name: str, seconds: float, trace: bool) -> Measurement:
    """Set up `SETUP_REPEATS` times, then run operations back to back for `seconds`.

    A speed probe runs between set-ups, before every operation, every
    PROBE_PERIOD_S inside it and once at the end.  Times are reported at the
    probe's reference speed, less the probes inside them, and raw
    (see speed.py).
    """
    log = SpeedLog(workload.probe_parts)
    log.probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        workload.setup()
        setups.append((t0, time.perf_counter_ns()))
        log.probe()

    ops: list[OpResult] = []
    start = time.perf_counter()
    with probing(log):
        while not ops or time.perf_counter() - start < seconds:
            log.probe()
            ops.append(_attempt(workload))
    log.probe()

    steps = [(a, b) for op in ops for a, b in op.steps]
    walls = [log.normalized_s(op.start_ns, op.end_ns) for op in ops]
    steps_ms = [log.normalized_s(a, b) * 1e3 for a, b in steps]
    metrics = {
        "setup_s": (statistics.median(log.normalized_s(a, b) for a, b in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_p90": (_percentile(walls, 90), "s"),
        "step_ms_p50": (_percentile(steps_ms, 50), "ms"),
        "step_ms_p90": (_percentile(steps_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "slowness": (log.median_slowness(), "ratio"),
        "setup_s_raw": (statistics.median((b - a) / 1e9 for a, b in setups), "s"),
        "wall_s_raw": (statistics.median(log.raw_s(op.start_ns, op.end_ns) for op in ops), "s"),
        "step_ms_p50_raw": (_percentile([log.raw_s(a, b) * 1e3 for a, b in steps], 50), "ms"),
    }
    for key in dict.fromkeys(k for op in ops for k in op.quality):
        values = [op.quality[key] for op in ops if key in op.quality]
        metrics[key] = (statistics.median(values), _QUALITY_UNITS[key])
    samples = {"setup_s": len(setups), "wall_s": len(walls), "wall_s_p90": len(walls),
               "step_ms_p50": len(steps_ms), "step_ms_p90": len(steps_ms), "peak_rss_mb": 1,
               "slowness": len(log.starts), "setup_s_raw": len(setups), "wall_s_raw": len(walls),
               "step_ms_p50_raw": len(steps_ms)}

    tracer, body = None, []
    if trace:
        tracer = Tracer(name)
        with tracer.installed():
            with tracer.run_as("setup"):
                workload.setup()
            with tracer.run_as("op"):
                traced = _attempt(workload)
        ops.append(traced)
        # Only spans inside the timed body count, as for wall_s.
        body = [s for s in tracer.spans
                if s.run == "op" and traced.start_ns <= s.start_ns and s.end_ns <= traced.end_ns]
        metrics.update(layer_metrics(body, [s for s in tracer.spans if s.run == "setup"],
                                     traced.wall_s))
        metrics["trace.wall_s"] = (traced.wall_s, "s")
        # The traced operation runs without probes, so it compares with raw times.
        metrics["trace.overhead_s"] = (traced.wall_s - metrics["wall_s_raw"][0], "s")

    failed = sum(1 for op in ops if op.failures)
    metrics["failed_frac"] = (failed / len(ops), "ratio")
    samples["failed_frac"] = len(ops)
    return Measurement(
        attempted=len(ops),
        failed=failed,
        metrics=metrics,
        samples=samples,
        failures=[f for op in ops for f in op.failures],
        ops=[{"wall_s": op.wall_s, "steps": len(op.steps), "quality": op.quality,
              "failures": op.failures} for op in ops],
        tracer=tracer,
        body_spans=body,
    )


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(root: Path, blas_threads: int) -> dict:
    """Machine, library and source versions a result depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def report_lines(name: str, seed: int, m: Measurement, env: dict) -> list[str]:
    """Human-readable summary: every metric by name, with its unit and sample count."""
    lines = [f"workload {name}  seed {seed}  ops {m.attempted}  failed {m.failed}  "
             f"nproc {env['nproc']}  blas {env['blas']['name']} {env['blas']['version']} "
             f"x{env['blas_threads']}"]
    for key, (value, unit) in m.metrics.items():
        n = m.samples.get(key)
        lines.append(f"  {key:28s} {value:14.6g} {unit:8s}" + (f" n={n}" if n is not None else ""))
    for failure in m.failures:
        lines.append("  FAILED: " + failure.strip().replace("\n", "\n    "))
    return lines


def result_line(m: Measurement, names: list[str]) -> str:
    """The final JSON line: the metrics `names`, in that order."""
    missing = [n for n in names if n not in m.metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": m.metrics[n][0], "unit": m.metrics[n][1]} for n in names},
    })


def write_results(out_dir: Path, stem: str, name: str, seed: int, seconds: float,
                  m: Measurement, env: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.json"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": m.tracer is not None,
        "environment": env, "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u, "samples": m.samples.get(k)}
                    for k, (v, u) in m.metrics.items()},
        "ops": m.ops,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    if m.tracer is not None:
        m.tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    return path
