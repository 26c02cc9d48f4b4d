"""Span tracing of the lsfa layers from outside the package.

A :class:`Tracer` wraps the public functions of each ``lsfa`` module for the
duration of a ``with tracer.installed():`` block and records one span per
call: name, layer, start, end, parent span, workload and run id, plus a few
attributes read from the call's arguments or result (the size of the
factorized matrix, the working-set size, the safeguard verdict, ...).
Spans stay in memory; :meth:`Tracer.write_jsonl` writes them out at the end.

``newton``, ``baseline``, ``harness`` and ``prox`` import functions by name,
so a module-level function is replaced under every name any ``lsfa`` module
binds it to.  Methods (``SymmetricBasis.sym_kron``, the coordinate maps and
``Iterate.__init__``) are replaced on their class.  The reduced Cholesky is
timed by giving ``lsfa.newton`` its own view of ``scipy.linalg`` whose
``cho_factor`` is wrapped, so no other caller of scipy is affected.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import scipy.linalg

import lsfa.newton
from lsfa.objective import Iterate
from lsfa.symbasis import SymmetricBasis


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    workload: str
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _record_sym_kron(span, args, result):
    span.attrs["m"] = args[0].m


def _record_cho_factor(span, args, result):
    span.attrs["n"] = int(args[0].shape[0])


def _record_safeguard(span, args, result):
    span.attrs["accepted"] = bool(result)


def _record_line_search(span, args, result):
    span.attrs["n_backtracks"] = int(result.n_backtracks)
    span.attrs["success"] = bool(result.success)


def _record_residual(span, args, result):
    span.attrs["working_set"] = int(len(result.T))
    span.attrs["m"] = args[0].basis.m


def _record_ipm(span, args, result):
    span.attrs["status"] = result.status
    span.attrs["n_outer"] = int(result.n_outer)
    span.attrs["n_inner"] = int(result.n_inner_total)


def _record_bcd(span, args, result):
    span.attrs["n_iters"] = int(result.n_iters)


# (layer, module-level function name, attribute recorder)
_FUNCTIONS = [
    ("objective", "grad_h_tau", None),
    ("objective", "eval_h_tau", None),
    ("objective", "hessian_blocks", None),
    ("prox", "stationarity_residual", _record_residual),
    ("newton", "newton_direction", None),
    ("newton", "descent_safeguard", _record_safeguard),
    ("newton", "line_search", _record_line_search),
    ("newton", "solve_tau_min", None),
    ("ipm", "ipm_solve", _record_ipm),
    ("baseline", "bcd_solve", _record_bcd),
    ("harness", "run_cv", None),
    ("harness", "run_generate", None),
    ("datagen", "generate_ground_truth", None),
    ("datagen", "sample_observations", None),
]

# (layer, class, method name, span name, attribute recorder)
_METHODS = [
    ("symbasis", SymmetricBasis, "sym_kron", "sym_kron", _record_sym_kron),
    ("symbasis", SymmetricBasis, "mat_to_vec", "mat_to_vec", None),
    ("symbasis", SymmetricBasis, "vec_to_mat", "vec_to_mat", None),
    ("objective", Iterate, "__init__", "Iterate", None),
]


class _LinalgView:
    """scipy.linalg with one function replaced; everything else delegates."""

    def __init__(self, cho_factor):
        self.cho_factor = cho_factor

    def __getattr__(self, name):
        return getattr(scipy.linalg, name)


def _lsfa_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lsfa" or name.startswith("lsfa."))]


class Tracer:
    """Records spans for calls into lsfa while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run = ""
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, layer: str, name: str, fn, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, layer, time.perf_counter_ns(), 0,
                        self._stack[-1].id if self._stack else None, self.workload, self.run)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if record is not None:
                record(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the lsfa entry points with tracing wrappers; restore on exit."""
        undo = []
        try:
            modules = _lsfa_modules()
            for layer, name, record in _FUNCTIONS:
                original = getattr(sys.modules[f"lsfa.{layer}"], name)
                wrapper = self.wrap(layer, name, original, record)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            for layer, cls, attr, name, record in _METHODS:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(layer, name, original, record))
            cho = self.wrap("newton", "cho_factor", scipy.linalg.cho_factor, _record_cho_factor)
            undo.append((lsfa.newton, "scipy", lsfa.newton.scipy))
            # lsfa.newton uses scipy only as scipy.linalg.
            lsfa.newton.scipy = types.SimpleNamespace(linalg=_LinalgView(cho))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def run_as(self, run: str):
        """Label every span started inside the block with run id `run`."""
        self.run = run
        try:
            yield
        finally:
            self.run = ""

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.duration_ns
    return {span.id: span.duration_ns - child_ns[span.id] for span in spans}


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times_ns(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.id] / 1e9
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Layer times that some workload never exercises, so that they read exactly 0
# on every one of its runs.  Each also appears as `<name>_share`, its share of
# the traced wall time, a ratio that stays comparable across workloads.
SHARED_TIMES = ("symbasis.sym_kron_s", "objective.hessian_blocks_s", "newton.direction_s",
                "newton.factor_s", "newton.linesearch_s", "harness.self_s")


def layer_metrics(op_spans: list[Span], setup_spans: list[Span],
                  wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, as name -> (value, unit).

    `op_spans` are the spans of the timed operation, `setup_spans` those of
    one traced instance set-up, `wall_s` the operation's traced wall time.
    Times ending in `_s` are self times, except `sym_kron_s` and `factor_s`
    (leaf spans, so self equals total), `linesearch_s` (the whole search,
    trial points included) and `datagen.generate_s` (total generator time
    during set-up).
    """
    own = self_times_ns(op_spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in op_spans:
        by_name[span.name].append(span)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name[n]) / 1e9

    def total_s(name):
        return sum(s.duration_ns for s in by_name[name]) / 1e9

    kron = by_name["sym_kron"]
    factor = by_name["cho_factor"]
    safeguard = by_name["descent_safeguard"]
    searches = by_name["line_search"]
    succeeded = [s for s in searches if s.attrs.get("success")]
    residuals = by_name["stationarity_residual"]
    ipm = [s for s in by_name["ipm_solve"] if "n_outer" in s.attrs]
    bcd_iters = sum(s.attrs["n_iters"] for s in by_name["bcd_solve"] if "n_iters" in s.attrs)
    cv_ids = {s.id for s in by_name["run_cv"]}
    fits = [s for s in by_name["ipm_solve"] if s.parent in cv_ids]
    harness_self = sum(own[s.id] for s in op_spans if s.layer == "harness") / 1e9

    metrics = {
        "symbasis.sym_kron_calls": (len(kron), "count"),
        "symbasis.sym_kron_s": (total_s("sym_kron"), "s"),
        "symbasis.sym_kron_gb": (sum(s.attrs["m"] ** 2 * 8 for s in kron) / 1e9, "GB"),
        "symbasis.maps_s": (self_s("mat_to_vec", "vec_to_mat"), "s"),
        "objective.iterate_calls": (len(by_name["Iterate"]), "count"),
        "objective.iterate_s": (self_s("Iterate"), "s"),
        "objective.grad_s": (self_s("grad_h_tau"), "s"),
        "objective.eval_h_s": (self_s("eval_h_tau"), "s"),
        "objective.hessian_blocks_s": (self_s("hessian_blocks"), "s"),
        "prox.residual_s": (self_s("stationarity_residual"), "s"),
        "prox.working_set_frac": (
            _ratio(sum(s.attrs["working_set"] / s.attrs["m"] for s in residuals if "m" in s.attrs),
                   sum(1 for s in residuals if "m" in s.attrs)), "ratio"),
        "newton.direction_s": (self_s("newton_direction"), "s"),
        "newton.factor_s": (total_s("cho_factor"), "s"),
        "newton.factor_gflop": (sum(s.attrs["n"] ** 3 / 3 for s in factor) / 1e9, "GFLOP"),
        "newton.accept_ratio": (
            _ratio(sum(s.attrs.get("accepted", False) for s in safeguard), len(safeguard)), "ratio"),
        "newton.linesearch_s": (total_s("line_search"), "s"),
        "newton.backtracks_per_step": (
            _ratio(sum(s.attrs["n_backtracks"] for s in succeeded), len(succeeded)), "count"),
        "newton.linesearch_failures": (
            sum(1 for s in searches if s.attrs.get("success") is False), "count"),
        "ipm.outer_solves": (sum(s.attrs["n_outer"] for s in ipm), "count"),
        "ipm.inner_steps": (sum(s.attrs["n_inner"] for s in ipm), "count"),
        "baseline.iters": (bcd_iters, "count"),
        # A timed body that runs bcd_solve runs nothing else.
        "baseline.trials_per_iter": (_ratio(len(by_name["Iterate"]), bcd_iters), "count"),
        "harness.fits": (len(fits), "count"),
        "harness.fits_inf": (
            sum(1 for s in fits if s.attrs.get("status", "error") != "converged"), "count"),
        "harness.self_s": (harness_self, "s"),
        "datagen.generate_s": (
            sum(s.duration_ns for s in setup_spans if s.layer == "datagen") / 1e9, "s"),
    }
    for name in SHARED_TIMES:
        metrics[name[:-len("_s")] + "_share"] = (_ratio(metrics[name][0], wall_s), "ratio")
    return metrics
