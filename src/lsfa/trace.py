"""Shared per-iteration trace schema with lossless CSV round-tripping."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .objective import BarrierObjective, Iterate, eval_f_at, eval_h_tau


@dataclass
class TraceRow:
    """One accepted solver iteration.

    `residual_normalized` is the stationarity residual divided by sqrt(2m),
    the quantity every solver in this package stops on; `wall_time_ns` is a
    monotonic clock stamp taken when the step was accepted.
    """

    outer_iter: int
    tau: float
    inner_iter: int
    objective_h_tau: float
    objective_f: float
    residual_normalized: float
    support_size: int
    step_alpha: float
    direction_kind: str
    wall_time_ns: int

    @classmethod
    def accepted(cls, it: Iterate, barrier: BarrierObjective, *, outer_iter: int, inner_iter: int,
                 residual_normalized: float, step_alpha: float, direction_kind: str) -> TraceRow:
        """The row of an accepted step to `it`, with the objectives evaluated there."""
        return cls(
            outer_iter=outer_iter,
            tau=barrier.tau,
            inner_iter=inner_iter,
            objective_h_tau=eval_h_tau(it, barrier),
            objective_f=eval_f_at(it, barrier.problem),
            residual_normalized=residual_normalized,
            support_size=int(np.count_nonzero(it.s)),
            step_alpha=step_alpha,
            direction_kind=direction_kind,
            wall_time_ns=time.perf_counter_ns(),
        )


TRACE_COLUMNS = [f.name for f in fields(TraceRow)]
# column name -> int, float or str: what a CSV cell is parsed back with
_COLUMN_TYPES = get_type_hints(TraceRow)


def _format_cell(name: str, value) -> str:
    if _COLUMN_TYPES[name] is float:
        return format(float(value), ".17g")
    return str(value)


def write_trace_csv(rows: list[TraceRow], path) -> None:
    """Write trace rows as CSV with a header, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(_format_cell(name, getattr(row, name)) for name in TRACE_COLUMNS)


def read_trace_csv(path) -> list[TraceRow]:
    """Read trace rows back; exact inverse of :func:`write_trace_csv`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace columns {reader.fieldnames} in {path}")
        return [TraceRow(**{name: _COLUMN_TYPES[name](rec[name]) for name in TRACE_COLUMNS})
                for rec in reader]
