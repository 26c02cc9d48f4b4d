"""Properties over drawn inputs (hypothesis): interior-point traces and run configurations.

Each trace example draws a factor-model instance with p from 3 to 6 and
solves it on a short barrier schedule (eps = 1e-2, six levels) from both
starts, default_init and sparse_init.  Monotone h_tau within a solve is not
a property of this solver: a step accepted on the penalized merit can raise
it.  Each summary example solves a drawn instance through the solve
pipeline, on that schedule and on an empty one.  Each configuration example
draws RunConfig field values and passes them through a JSON config file to
the command line; none runs a solve.  Each input-file example draws the
bytes of a small matrix file, well formed or broken in one way, and runs
the solve command on it as a covariance and as a samples file; each path
example runs a command with a missing input or an unusable run directory.
The draws are derandomized, so every run checks the same examples.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsfa import (
    IpmParams,
    ProblemData,
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
from lsfa.harness import FIELD_TYPES, RunConfig, run_solve, write_matrix_csv
from lsfa.trace import _COLUMN_TYPES

PARAMS = IpmParams(gamma=0.1, eps=1e-2)
SCHEDULE = [PARAMS.tau0 * PARAMS.theta**k for k in range(6)]  # 0.5 down to 0.5**6 > 1e-2
FLOAT_COLUMNS = [name for name, kind in _COLUMN_TYPES.items() if kind is float]


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
        # every trace value is finite, and every column holds exactly its declared type
        assert all(math.isfinite(getattr(row, name)) for row in rows for name in FLOAT_COLUMNS)
        assert all(type(getattr(row, name)) is kind
                   for row in rows for name, kind in _COLUMN_TYPES.items())
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


def _no_constant(name):
    raise ValueError(f"the summary holds {name}, which JSON does not")


def _json_value(x: float) -> float | None:
    return x if math.isfinite(x) else None


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(problems())
def test_solve_summary_is_json_and_reports_the_solution(problem):
    # tau0 = eps is an empty schedule: no level runs and the residual is NaN
    for tau0 in (PARAMS.tau0, PARAMS.eps):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            write_matrix_csv(Path(tmp) / "cov.csv", problem.sigma_check)
            config = RunConfig(p=problem.p, r=1, C=problem.C, mu=problem.mu, gamma=PARAMS.gamma,
                               tau0=tau0, eps=PARAMS.eps, run_dir=tmp, covariance_file="cov.csv")
            solution = run_solve(config)
        [line] = [ln for ln in out.getvalue().splitlines() if ln.startswith("solve summary:")]
        summary = json.loads(line.removeprefix("solve summary:"), parse_constant=_no_constant)
        assert summary["status"] == solution.status
        assert (tau0 > PARAMS.eps) == (solution.status != "empty-schedule")
        assert summary["outer_solves"] == solution.n_outer
        assert summary["inner_iterations"] == solution.n_inner_total
        assert summary["rank_estimate"] == solution.rank_estimate
        assert summary["final_tau"] == _json_value(solution.final_tau)
        assert summary["final_residual_normalized"] == _json_value(solution.final_residual_normalized)


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
    "eps": _POSITIVE, "residual_tol": _POSITIVE, "max_inner_iters": _COUNT,
    "eta_rank": _UNIT, "eta_supp": _UNIT, "bcd_max_iters": _COUNT,
    "folds": st.integers(2, 1000),
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


# ---------- bad input files and paths ----------

_FAULTS = ["none", "word", "non-finite", "ragged", "empty", "asymmetric", "indefinite", "bom",
           "semicolons", "bytes", "magnitude"]
# a small solve, for the files that parse to a usable covariance
_SMALL_SOLVE = ["--max-inner-iters", "10", "--eps", "0.1"]


@st.composite
def matrix_files(draw):
    """The bytes of a CSV file: a positive-definite p x p matrix (p <= 3), or one broken in one way.

    A broken file may also be positive definite but of extreme magnitude.
    """
    p = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(st.integers(-3, 3), min_size=p * p, max_size=p * p))).reshape(p, p)
    cells = [[repr(float(x)) for x in row] for row in A @ A.T + p * np.eye(p)]
    i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "empty":
        return draw(st.sampled_from([b"", b"\n", b" \n\n"]))
    if fault == "bytes":
        return draw(st.binary(max_size=32))
    if fault == "word":
        cells[i][j] = draw(st.sampled_from(["abc", "", "1..2", "0x10", "1,5", '"1"']))
    elif fault == "non-finite":
        cells[i][j] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-1e400"]))
    elif fault == "ragged":
        del cells[i][j]
    elif fault == "asymmetric":
        cells[i][(i + 1) % p] = repr(float(cells[i][(i + 1) % p]) + 0.5)
    elif fault == "indefinite":
        cells[i][i] = repr(-float(cells[i][i]))
    elif fault == "magnitude":
        # finite entries whose squares, inverses or differences overflow
        scale = draw(st.sampled_from([1e-320, 1e-200, 1e100, 1e150, 1e300]))
        cells = [[repr(float(x) * scale) for x in row] for row in cells]
    text = "\n".join((";" if fault == "semicolons" else ",").join(row) for row in cells)
    text += draw(st.sampled_from(["", "\n"]))
    return (b"\xef\xbb\xbf" if fault == "bom" else b"") + text.encode()


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr; a warning it emits fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrix_files())
def test_a_drawn_matrix_file_exits_0_or_4_with_one_error_line(content):
    for flag in ("--covariance", "--samples"):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "m.csv").write_bytes(content)
            code, out, err = _run_main(["solve", "--run-dir", tmp, flag, "m.csv", *_SMALL_SOLVE])
        assert code in (0, 4)
        if "solve summary:" in out:
            # the solve ran: 4 is a solve that did not converge
            assert err == ""
        else:
            assert code == 4
            [line] = err.splitlines()
            assert line.startswith("numerical failure:")


_PATH_FAULTS = ["missing samples", "run dir is a file", "missing config"]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["generate", "solve", "compare", "cv"]), st.sampled_from(_PATH_FAULTS))
def test_a_missing_or_unusable_path_exits_3(command, fault):
    # generate writes the samples file rather than reading it
    assume(not (command == "generate" and fault == "missing samples"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--p", "3", "--r", "1", "--n", "30", "--run-dir", tmp]
        if fault == "run dir is a file":
            argv[-1] = str(Path(tmp, "file"))
            Path(argv[-1]).write_text("")
        elif fault == "missing config":
            argv += ["--config", str(Path(tmp, "absent.json"))]
        code, _, err = _run_main(argv)
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith("I/O error:")
