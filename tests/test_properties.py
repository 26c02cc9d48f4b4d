"""Properties of interior-point traces over small drawn instances (hypothesis).

Each example draws a factor-model instance with p from 3 to 6 and solves it
on a short barrier schedule (eps = 1e-2, six levels) from both starts,
default_init and sparse_init.  The draws are derandomized, so every run
checks the same examples.  Monotone h_tau within a solve is not a property
of this solver: a step accepted on the penalized merit can raise it.
"""

import math
import tempfile
from pathlib import Path
from typing import get_type_hints

from hypothesis import given, settings
from hypothesis import strategies as st

from lsfa import (
    IpmParams,
    ProblemData,
    TraceRow,
    default_init,
    generate_ground_truth,
    ipm_solve,
    read_trace_csv,
    sample_covariance,
    sample_observations,
    sparse_init,
    write_trace_csv,
)

PARAMS = IpmParams(gamma=0.1, epsilon=1e-2)
SCHEDULE = [PARAMS.tau0 * PARAMS.theta**k for k in range(6)]  # 0.5 down to 0.5**6 > 1e-2
FLOAT_COLUMNS = [name for name, kind in get_type_hints(TraceRow).items() if kind is float]


@st.composite
def problems(draw):
    p = draw(st.integers(3, 6))
    truth = generate_ground_truth(p, draw(st.integers(1, 2)), draw(st.sampled_from([0.2, 0.5])),
                                  draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.integers(0, 9999)))
    samples = sample_observations(truth, 50 * p, seed=draw(st.integers(0, 9999)))
    return ProblemData(sample_covariance(samples), C=draw(st.sampled_from([0.1, 0.5, 1.0])),
                       mu=draw(st.sampled_from([10.0, 100.0])))


def _solutions(problem):
    for start in (default_init(problem), sparse_init(problem, PARAMS)):
        yield ipm_solve(problem, start, PARAMS)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(problems())
def test_trace_properties(problem):
    for solution in _solutions(problem):
        rows = solution.traces
        # every trace value is finite
        assert all(math.isfinite(getattr(row, name)) for row in rows for name in FLOAT_COLUMNS)
        # a step zeroes every coordinate off the set it updated
        assert all(row.support_size <= row.working_set_size for row in rows)
        # the levels are the closed-form schedule, each with at least one row;
        # only a level that ends the schedule in a line-search failure may have none
        assert all(row.tau == SCHEDULE[row.outer_iter] for row in rows)
        levels = [row.outer_iter for row in rows]
        assert levels == sorted(levels)
        if solution.status == "line-search-failure":
            assert set(levels) >= set(range(solution.n_outer - 1))
        else:
            assert solution.n_outer == len(SCHEDULE)
            assert set(levels) == set(range(len(SCHEDULE)))
        # the CSV round trip is exact, every column included
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(rows, path)
            assert read_trace_csv(path) == rows
