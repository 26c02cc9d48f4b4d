"""Properties over drawn inputs (hypothesis): interior-point traces and run configurations.

Each trace example draws a factor-model instance with p from 3 to 6 and
solves it on a short barrier schedule (eps = 1e-2, six levels) from both
starts, default_init and sparse_init.  Monotone h_tau within a solve is not
a property of this solver: a step accepted on the penalized merit can raise
it.  Each configuration example draws RunConfig field values and passes them
through a JSON config file to the command line; none runs a solve.  The
draws are derandomized, so every run checks the same examples.
"""

import contextlib
import io
import json
import math
import re
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
from lsfa.cli import build_parser, config_from_args, main
from lsfa.harness import FIELD_TYPES, RunConfig

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


# ---------- run configurations ----------

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_COUNT = st.integers(1, 10**6)
_NAME = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
# every field but p and r, which are drawn together (1 <= r < p); a field
# missing here fails the configuration tests with a KeyError
_VALID = {
    "n": _COUNT, "density": _UNIT | st.just(1.0), "snr": _POSITIVE, "seed": st.integers(0, 2**32),
    "C": _POSITIVE, "mu": _POSITIVE, "gamma": _POSITIVE, "tau0": _POSITIVE, "theta": _UNIT,
    "eps": _POSITIVE, "delta": _POSITIVE,
    "sigma": st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
    "beta": _UNIT, "residual_tol": _POSITIVE, "max_inner_iters": _COUNT, "max_backtracks": _COUNT,
    "eta_rank": _POSITIVE, "eta_supp": _POSITIVE, "bcd_max_iters": _COUNT,
    "bcd_step_ell": _POSITIVE, "folds": st.integers(2, 1000),
    "c_grid": st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    "mu_grid": st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    "run_dir": _NAME, "samples_file": _NAME, "covariance_file": st.none() | _NAME,
    "trace_out": _NAME,
}
_NUMERIC = sorted(name for name, kind in FIELD_TYPES.items() if kind in (int, float, tuple[float, ...]))


@st.composite
def valid_configs(draw):
    p = draw(st.integers(2, 500))
    values = {name: draw(_VALID[name]) for name in FIELD_TYPES if name not in ("p", "r")}
    return {"p": p, "r": draw(st.integers(1, p - 1)), **values}


def _config_file(tmp: str, data: dict) -> str:
    path = str(Path(tmp) / "config.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(valid_configs())
def test_config_file_round_trips_through_the_command_line(values):
    expected = RunConfig(**values).validate()
    with tempfile.TemporaryDirectory() as tmp:
        args = build_parser().parse_args(["solve", "--config", _config_file(tmp, values)])
        assert config_from_args(args) == expected


@st.composite
def bad_fields(draw):
    """A numeric field and a value it rejects: nan, 0, a negative number or a string."""
    name = draw(st.sampled_from(_NUMERIC))
    bad = [math.nan, -draw(st.integers(1, 10**6)), "1"] + ([0] if name != "seed" else [])
    value = draw(st.sampled_from(bad))
    return name, [value] if FIELD_TYPES[name] == tuple[float, ...] else value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(valid_configs(), bad_fields())
def test_a_bad_config_value_exits_2_naming_its_field(values, bad):
    name, value = bad
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = _config_file(tmp, {**values, "run_dir": tmp, name: value})
        assert main(["solve", "--config", path]) == 2
    assert re.search(rf"\b{name}\b", err.getvalue()), err.getvalue()
