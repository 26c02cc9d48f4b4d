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
    the quantity every solver in this package stops on; `working_set_size`
    is the size of the index set the step updated, every coordinate of s off
    it being zeroed (for a Newton step, the set it was solved on, after the
    coordinates it predicts to drop have left); `n_backtracks` is the number
    of trial points rejected before the accepted one; `wall_time_ns` is a
    monotonic clock stamp taken when the step was accepted; `cg_iterations`
    is the number of conjugate-gradient iterations spent on the step's
    direction, summed over its passes, and `cg_rtol` the relative residual
    those solves were asked for, the step's forcing term (both 0 for a
    baseline step).
    """

    outer_iter: int
    tau: float
    inner_iter: int
    objective_h_tau: float
    objective_f: float
    residual_normalized: float
    support_size: int
    working_set_size: int
    step_alpha: float
    n_backtracks: int
    direction_kind: str
    wall_time_ns: int
    cg_iterations: int = 0
    cg_rtol: float = 0.0

    @classmethod
    def accepted(cls, it: Iterate, barrier: BarrierObjective, **columns) -> TraceRow:
        """The row of an accepted step to `it`.

        The barrier level, the objectives evaluated at `it`, its support size
        and the clock stamp are filled in here; every other column comes from
        `columns` by name, stored as its declared type.  A name that is not a
        column raises TypeError, as the constructor does.
        """
        unknown = columns.keys() - _COLUMN_TYPES.keys()
        if unknown:
            raise TypeError(f"TraceRow has no columns {sorted(unknown)}")
        return cls(
            tau=barrier.tau,
            objective_h_tau=eval_h_tau(it, barrier),
            objective_f=eval_f_at(it, barrier.problem),
            support_size=int(np.count_nonzero(it.s)),
            wall_time_ns=time.perf_counter_ns(),
            **{name: _COLUMN_TYPES[name](value) for name, value in columns.items()},
        )


TRACE_COLUMNS = [f.name for f in fields(TraceRow)]
# column name -> int, float or str: what TraceRow.accepted stores a column as,
# and what a CSV cell is parsed back with
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
