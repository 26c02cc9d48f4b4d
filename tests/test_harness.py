import argparse
import inspect
import json
import os
import warnings
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lsfa.harness
import lsfa.newton
from lsfa import (BarrierObjective, BaselineParams, ConfigError, IpmParams, Iterate, ProblemData,
                  SymmetricBasis, TraceRow, ipm_solve, read_trace_csv, recover_solution,
                  write_trace_csv)
from lsfa.cli import build_parser, main
from lsfa.harness import (
    FIELD_TYPES,
    RunConfig,
    config_from_dict,
    gaussian_nll,
    read_matrix_csv,
    run_cv,
    run_generate,
    run_solve,
    write_matrix_csv,
)
from conftest import fail_lapack

SMALL = ["--p", "6", "--r", "2", "--n", "200", "--seed", "3", "--mu", "10", "--C", "0.5",
         "--gamma", "0.1"]


# ---------- file round trips ----------

def test_matrix_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, size=(7, 5)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back = read_matrix_csv(path)
    assert np.array_equal(M, back)  # 17 significant digits round-trip float64


@pytest.mark.parametrize("shape", [(50, 1), (1, 6), (1, 1)])
def test_matrix_csv_keeps_one_column_and_one_row_shapes(tmp_path, shape):
    # a one-column file holds N rows of one number each, not one row of N
    M = np.random.default_rng(2).standard_normal(shape)
    write_matrix_csv(tmp_path / "m.csv", M)
    back = read_matrix_csv(tmp_path / "m.csv")
    assert back.shape == shape
    assert np.array_equal(M, back)


def test_cli_solve_one_variable_samples(tmp_path):
    samples = np.random.default_rng(3).standard_normal((50, 1))
    write_matrix_csv(tmp_path / "col.csv", samples)
    assert main(["solve", "--run-dir", str(tmp_path), "--samples", "col.csv"]) == 0
    assert read_matrix_csv(tmp_path / "S_star.csv").shape == (1, 1)


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rows = [
        TraceRow(
            outer_iter=int(rng.integers(0, 20)),
            tau=float(0.5 * 0.5 ** rng.integers(0, 20)),
            inner_iter=k + 1,
            objective_h_tau=float(rng.standard_normal() * 1e3),
            objective_f=float(rng.standard_normal() * 1e3),
            residual_normalized=float(np.exp(rng.uniform(-12, 0))),
            support_size=int(rng.integers(0, 800)),
            working_set_size=int(rng.integers(0, 820)),
            step_alpha=float(0.5 ** rng.integers(0, 30)),
            n_backtracks=int(rng.integers(0, 102)),
            direction_kind=rng.choice(["newton", "gradient-fallback", "bcd"]),
            wall_time_ns=int(rng.integers(0, 2**60)),
            cg_iterations=int(rng.integers(0, 5000)),
            cg_rtol=float(rng.choice([0.0, 1e-12, 1e-3, np.exp(rng.uniform(-28, -2))])),
        )
        for k in range(25)
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert read_trace_csv(path) == rows


def test_read_trace_csv_rejects_a_file_with_other_columns(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("outer_iter,tau\n0,0.5\n")
    with pytest.raises(ValueError, match="unexpected trace columns"):
        read_trace_csv(path)


def test_accepted_row_stores_declared_types_and_rejects_unknown_columns():
    p = 3
    problem = ProblemData(np.eye(p), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    it = Iterate.from_matrices(0.5 * np.eye(p), 0.5 * np.eye(p), SymmetricBasis(p))
    columns = dict(outer_iter=np.int64(0), inner_iter=1, residual_normalized=np.float64(0.25),
                   working_set_size=np.intp(4), step_alpha=1.0, n_backtracks=0,
                   direction_kind="bcd")
    row = TraceRow.accepted(it, barrier, **columns)
    assert [type(getattr(row, f.name)) for f in fields(TraceRow)] == [
        get_type_hints(TraceRow)[f.name] for f in fields(TraceRow)]
    assert (row.residual_normalized, row.cg_iterations, row.cg_rtol) == (0.25, 0, 0.0)
    with pytest.raises(TypeError, match="n_backtrack"):
        TraceRow.accepted(it, barrier, **columns, n_backtrack=0)
    # a computed column cannot be supplied too
    with pytest.raises(TypeError):
        TraceRow.accepted(it, barrier, **columns, tau=0.2)


# ---------- config ----------

def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="theta"):
        RunConfig(theta=1.5).validate()
    with pytest.raises(ConfigError, match="gamma"):
        RunConfig(gamma=-1.0).validate()
    with pytest.raises(ConfigError, match="folds"):
        RunConfig(folds=1).validate()
    with pytest.raises(ConfigError, match="n must"):
        RunConfig(n=0).validate()


def test_config_defaults_are_the_solver_defaults():
    # RunConfig hands the solvers exactly what a library caller gets by default
    config = RunConfig()
    assert config.ipm_params() == IpmParams(gamma=RunConfig.gamma)
    assert config.baseline_params() == BaselineParams(gamma=RunConfig.gamma)
    for read_out in (ipm_solve, recover_solution):
        defaults = inspect.signature(read_out).parameters
        assert defaults["eta_rank"].default == config.eta_rank
        assert defaults["eta_supp"].default == config.eta_supp


def test_config_hands_each_setting_to_its_own_solver_field():
    # distinct non-default values, so that a swap of any two fields shows
    settings = dict(gamma=0.11, residual_tol=5e-4, max_inner_iters=61, tau0=0.81, theta=0.91,
                    eps=6e-6, bcd_max_iters=81)
    assert len(set(settings.values())) == len(settings)
    config = RunConfig(**settings).validate()
    ipm = config.ipm_params()
    assert ipm == IpmParams(gamma=0.11, residual_tol=5e-4, max_inner_iters=61, tau0=0.81,
                            theta=0.91, eps=6e-6)
    baseline = config.baseline_params()
    assert baseline == BaselineParams(gamma=0.11, residual_tol=5e-4, max_iters=81)
    # and no setting is a default, so each value reached its field from the config
    for params in (ipm, baseline):
        defaults = type(params)(gamma=RunConfig.gamma)
        for f in fields(params):
            assert getattr(params, f.name) != getattr(defaults, f.name), f.name


@pytest.mark.parametrize("name", ["C", "mu"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_config_validation_rejects_non_finite_weights(name, bad):
    # the weights are checked once, by ProblemData.check_weights
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        RunConfig(**{name: bad}).validate()


def test_config_validation_rejects_zero_weights():
    # ProblemData itself admits mu = 0, the degenerate limit; a run needs mu > 0
    with pytest.raises(ConfigError, match="C must be"):
        RunConfig(C=0.0).validate()
    with pytest.raises(ConfigError, match="mu must be"):
        RunConfig(mu=0.0).validate()


# today's flags are the field names with '-' for '_', except these two
RENAMED_FLAGS = {"samples_file": "--samples", "covariance_file": "--covariance"}
# field type -> (flag text, the value it parses to)
FLAG_VALUES = {int: ("3", 3), float: ("0.25", 0.25), tuple[float, ...]: ("0.5,1", (0.5, 1.0))}


def test_every_config_field_has_one_flag_of_its_type():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        flags = {a.dest: a.option_strings for a in sub._actions if a.dest not in ("help", "config")}
        assert set(flags) == {f.name for f in fields(RunConfig)}
        for f in fields(RunConfig):
            flag = RENAMED_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
            assert flags[f.name] == [flag]
            text, value = FLAG_VALUES.get(FIELD_TYPES[f.name], ("x.csv", "x.csv"))
            parsed = getattr(parser.parse_args([command, flag, text]), f.name)
            assert parsed == value and type(parsed) is type(value)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"p": 4, "nonsense": 1})


def test_config_run_dir_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("LSFA_RUN_DIR", str(tmp_path))
    cfg = RunConfig()
    assert cfg.run_dir == str(tmp_path)


# ---------- generate ----------

def test_generate_writes_expected_shapes(tmp_path):
    cfg = RunConfig(p=40, r=5, n=1200, seed=42, run_dir=str(tmp_path))
    run_generate(cfg)
    samples = read_matrix_csv(tmp_path / "samples.csv")
    assert samples.shape == (1200, 40)
    assert read_matrix_csv(tmp_path / "truth_gamma.csv").shape == (40, 5)
    assert read_matrix_csv(tmp_path / "truth_sigma.csv").shape == (40, 40)
    support = np.loadtxt(tmp_path / "truth_support.csv", delimiter=",", dtype=int)
    assert set(np.unique(support)) <= {0, 1}


def test_generate_deterministic_bytes(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run_generate(RunConfig(p=8, r=2, n=50, seed=9, run_dir=str(d)))
    for name in ("samples.csv", "truth_gamma.csv", "truth_s.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_generate_rejects_zero_samples(tmp_path):
    assert main(["generate", "--p", "6", "--r", "2", "--n", "0",
                 "--run-dir", str(tmp_path)]) == 2


# ---------- solve ----------

@pytest.fixture()
def small_run_dir(tmp_path):
    assert main(["generate", *SMALL, "--run-dir", str(tmp_path)]) == 0
    return tmp_path


def test_cli_solve_small_instance(small_run_dir, capsys):
    code = main(["solve", *SMALL, "--run-dir", str(small_run_dir)])
    assert code == 0
    rows = read_trace_csv(small_run_dir / "trace.csv")
    assert rows[-1].residual_normalized <= 1e-4
    assert len({row.tau for row in rows}) == 19  # theta=0.5, tau0=0.5, eps=1e-6
    L = read_matrix_csv(small_run_dir / "L_star.csv")
    S = read_matrix_csv(small_run_dir / "S_star.csv")
    np.linalg.cholesky(L)
    np.linalg.cholesky(S)


def test_cli_solve_from_covariance_file(small_run_dir):
    samples = read_matrix_csv(small_run_dir / "samples.csv")
    cov = samples.T @ samples / samples.shape[0]
    write_matrix_csv(small_run_dir / "cov.csv", cov)
    code = main(["solve", *SMALL, "--run-dir", str(small_run_dir),
                 "--covariance", "cov.csv"])
    assert code == 0


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON value")
    return json.loads(text, parse_constant=reject)


def test_cli_solve_empty_schedule_exits_numerical(small_run_dir, capsys):
    # tau0 <= eps leaves no barrier level to solve: not a converged solve
    code = main(["solve", *SMALL, "--run-dir", str(small_run_dir),
                 "--tau0", "1e-7", "--eps", "1e-6"])
    assert code == 4
    summary = _strict_json(capsys.readouterr().out.split("solve summary:")[1].splitlines()[0])
    assert summary["status"] == "empty-schedule"
    assert summary["final_tau"] == 1e-7
    assert summary["final_residual_normalized"] is None


def test_cli_cv_without_a_converged_fit_exits_numerical(small_run_dir, capsys):
    # every fit is an empty schedule and scores inf, so no grid point is usable
    code = main(["cv", *SMALL, "--run-dir", str(small_run_dir), "--tau0", "1e-7",
                 "--eps", "1e-6", "--c-grid", "0.5", "--mu-grid", "10", "--folds", "2"])
    assert code == 4
    result = _strict_json(capsys.readouterr().out.split("cv result:")[1].splitlines()[0])
    assert result["best_score"] is None
    assert main(["cv", *SMALL, "--run-dir", str(small_run_dir),
                 "--c-grid", "0.5", "--mu-grid", "10", "--folds", "2"]) == 0


def test_run_solve_raises_on_overflow_when_called_from_python(tmp_path):
    # the pipeline, not only the CLI, stops at the first overflow instead of
    # running to the iteration cap on non-finite numbers
    write_matrix_csv(tmp_path / "big.csv", np.array([[1e100]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError):
            run_solve(RunConfig(run_dir=str(tmp_path), covariance_file="big.csv"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_numerical_failure_names_the_command_and_the_file(tmp_path, capsys):
    # an overflow deep in the solve still says which run and which input failed
    write_matrix_csv(tmp_path / "big.csv", np.array([[1e300]]))
    assert main(["solve", "--run-dir", str(tmp_path), "--covariance", "big.csv"]) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: lsfa solve on {tmp_path / 'big.csv'}: ")


def test_cli_solve_missing_input_is_io_error(tmp_path):
    assert main(["solve", "--run-dir", str(tmp_path)]) == 3


def test_cli_solve_singular_covariance_is_numerical_error(tmp_path):
    # fewer samples than variables: the sample covariance cannot be inverted
    rng = np.random.default_rng(2)
    write_matrix_csv(tmp_path / "samples.csv", rng.standard_normal((3, 6)))
    assert main(["solve", "--p", "6", "--run-dir", str(tmp_path)]) == 4


def test_cli_solve_non_finite_covariance_is_data_error(tmp_path, capsys):
    cov = np.eye(4)
    cov[1, 2] = cov[2, 1] = np.nan
    write_matrix_csv(tmp_path / "cov.csv", cov)
    assert "nan" in (tmp_path / "cov.csv").read_text()
    assert main(["solve", "--run-dir", str(tmp_path), "--covariance", "cov.csv"]) == 4
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("flag,text", [
    ("--covariance", "1,2,3\n4,5,6\n"),
    ("--covariance", "2,1\n0,2\n"),
    ("--samples", "1,2,3\n4,5\n"),
    ("--samples", ""),
], ids=["not-square", "not-symmetric", "ragged-rows", "empty"])
def test_cli_malformed_matrix_file_is_data_error(tmp_path, capsys, flag, text):
    (tmp_path / "m.csv").write_text(text)
    assert main(["solve", "--run-dir", str(tmp_path), flag, "m.csv"]) == 4
    assert "cannot use the covariance from" in capsys.readouterr().err


def test_cli_cv_ragged_samples_is_data_error(tmp_path, capsys):
    (tmp_path / "samples.csv").write_text("1,2,3\n4,5\n")
    assert main(["cv", "--p", "3", "--r", "1", "--run-dir", str(tmp_path)]) == 4
    assert "is not a numeric CSV matrix" in capsys.readouterr().err


def test_cli_cv_non_finite_samples_is_data_error(tmp_path, capsys):
    # every fold's covariance would reject the file; it is named before any fit
    (tmp_path / "samples.csv").write_text("1,2\nnan,3\n4,5\n")
    argv = ["cv", "--folds", "2", "--c-grid", "0.5", "--mu-grid", "100", "--run-dir", str(tmp_path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "cannot use the covariance from" in err and "samples.csv" in err
    assert "NaN or infinite" in err
    assert not (tmp_path / "cv_scores.csv").exists()


def test_cli_cv_more_folds_than_samples_is_config_error(tmp_path, capsys):
    # an empty validation fold would score nan; the run stops before any fit
    (tmp_path / "samples.csv").write_text("1,2\n3,5\n2,1\n")
    argv = ["cv", "--p", "2", "--r", "1", "--folds", "5", "--c-grid", "0.5", "--mu-grid", "100",
            "--run-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "folds=5" in err and "3 samples" in err
    assert not (tmp_path / "cv_scores.csv").exists()


@pytest.mark.parametrize("config,argv", [
    ('{"p": "40"}', []),
    ('{"c_grid": 5}', []),
    ('{"p": 6.5, "r": 2}', []),
    ('{"p": 6, "r": 2', []),
    ('[["p", 6]]', []),
    (b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xc0)), []),
    (None, ["--seed", "-1"]),
    ('{"max_backtracks": 5}', []),
    ('{"bcd_step_ell": 0.5}', []),
    ('{"delta": 1e-3}', []),
    ('{"sigma": 0.1}', []),
    ('{"beta": 0.4}', []),
], ids=["str-for-int", "number-for-grid", "float-for-int", "malformed-json", "not-an-object",
        "not-utf-8", "negative-seed", "no-max-backtracks", "no-bcd-step-ell", "no-delta",
        "no-sigma", "no-beta"])
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, config, argv):
    args = ["generate", "--run-dir", str(tmp_path), *argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_bytes(config) if isinstance(config, bytes) else path.write_text(config)
        args += ["--config", str(path)]
    assert main(args) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "2"])
@pytest.mark.parametrize("flag", ["--eta-rank", "--eta-supp"])
def test_cli_read_out_threshold_of_one_or_more_is_config_error(tmp_path, capsys, flag, value):
    # a read-out keeps the values above eta times the largest, so at eta >= 1
    # it would keep none: rank 0, or an empty support
    assert main(["solve", "--run-dir", str(tmp_path), flag, value]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("flag", ["--max-backtracks", "--bcd-step-ell", "--delta", "--sigma",
                                  "--beta"])
def test_cli_has_no_flag_for_the_fixed_search_constants(tmp_path, flag):
    # the search's margin, decrease fraction, halving ratio and halving cap,
    # and the baseline's first ell step, are constants
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--run-dir", str(tmp_path), flag, "5"])
    assert exc.value.code == 2


def test_cli_grid_that_does_not_parse_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--run-dir", str(tmp_path), "--c-grid", "0.5,x"])
    assert exc.value.code == 2
    assert "grid must be comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["p", "n", "bcd_max_iters"])
@pytest.mark.parametrize("bad", [10.5, True])
def test_config_validation_names_a_count_that_is_not_an_integer(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        RunConfig(**{name: bad}).validate()


@pytest.mark.parametrize("entry", ["validate", "run_cv", "run_generate"])
@pytest.mark.parametrize("name,bad", [("r", 2.5), ("r", True), ("r", 0), ("folds", 2.5),
                                      ("folds", True), ("folds", 1), ("seed", 2.5),
                                      ("seed", True), ("seed", -1)])
def test_config_validation_names_a_bounded_count(tmp_path, entry, name, bad):
    # set from Python, a count that is not an integer or is below its bound is named,
    # not left to numpy's TypeError
    config = RunConfig(p=6, run_dir=str(tmp_path), **{name: bad})
    run = {"validate": RunConfig.validate, "run_cv": run_cv, "run_generate": run_generate}[entry]
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= "):
        run(config)
    assert list(tmp_path.iterdir()) == []


def test_config_validation_rejects_non_finite():
    with pytest.raises(ConfigError, match="C must be finite"):
        RunConfig(C=float("inf")).validate()
    with pytest.raises(ConfigError, match="c_grid"):
        RunConfig(c_grid=(0.5, float("inf"))).validate()


def test_solve_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(["generate", *SMALL, "--run-dir", str(d)]) == 0
        assert main(["solve", *SMALL, "--run-dir", str(d)]) == 0
    assert (a_dir / "L_star.csv").read_bytes() == (b_dir / "L_star.csv").read_bytes()
    assert (a_dir / "S_star.csv").read_bytes() == (b_dir / "S_star.csv").read_bytes()


def test_config_file_with_flag_override(small_run_dir):
    cfg_path = small_run_dir / "cfg.json"
    cfg_path.write_text(json.dumps({"p": 6, "r": 2, "n": 200, "seed": 3,
                                    "mu": 10.0, "C": 0.5, "gamma": 0.1,
                                    "run_dir": str(small_run_dir), "theta": 2.0}))
    # invalid theta from the file is overridden on the command line
    assert main(["solve", "--config", str(cfg_path), "--theta", "0.5"]) == 0
    assert main(["solve", "--config", str(cfg_path)]) == 2


# ---------- compare ----------

def test_cli_compare_outputs(small_run_dir):
    code = main(["compare", *SMALL, "--run-dir", str(small_run_dir),
                 "--bcd-max-iters", "2000"])
    assert code == 0
    summary = json.loads((small_run_dir / "summary.json").read_text())
    assert summary["ipm"]["status"] == "converged"
    assert summary["bcd"]["status"] in ("converged", "iteration-cap")
    ipm_rows = read_trace_csv(small_run_dir / "ipm_trace.csv")
    bcd_rows = read_trace_csv(small_run_dir / "bcd_trace.csv")
    assert ipm_rows[-1].residual_normalized <= 1e-4
    if summary["bcd"]["status"] == "converged":
        assert bcd_rows[-1].residual_normalized <= 1e-4
    else:
        assert len(bcd_rows) == 2000
    # traces tie back to the summary
    assert summary["ipm"]["total_inner_iterations"] == len(ipm_rows)
    assert summary["baseline_tau"] == ipm_rows[-1].tau


def test_cli_compare_empty_schedule_writes_strict_json(small_run_dir, capsys):
    # the empty schedule's residual is NaN: null on stdout and in summary.json
    code = main(["compare", *SMALL, "--run-dir", str(small_run_dir), "--tau0", "1e-7",
                 "--eps", "1e-6", "--bcd-max-iters", "20"])
    assert code == 4
    printed = _strict_json(capsys.readouterr().out.split("compare summary:")[1].splitlines()[0])
    written = _strict_json((small_run_dir / "summary.json").read_text())
    assert printed == written
    assert written["ipm"]["status"] == "empty-schedule"
    assert written["ipm"]["final_residual_normalized"] is None


# ---------- cv ----------

def test_cv_single_point_grid(small_run_dir):
    cfg = RunConfig(p=6, r=2, n=200, seed=3, mu=10.0, C=0.5, gamma=0.1,
                    run_dir=str(small_run_dir), c_grid=(0.5,), mu_grid=(10.0,))
    result = run_cv(cfg)
    assert result["best_C"] == 0.5
    assert result["best_mu"] == 10.0
    assert np.isfinite(result["best_score"])
    assert len(result["table"]) == 1


def test_cv_scores_finite_and_reproducible(small_run_dir):
    cfg = RunConfig(p=6, r=2, n=200, seed=3, gamma=0.1, run_dir=str(small_run_dir),
                    c_grid=(0.25, 0.5), mu_grid=(10.0,), folds=2)
    first = run_cv(cfg)
    second = run_cv(cfg)
    assert all(np.isfinite(row["score"]) for row in first["table"])
    assert first["table"] == second["table"]
    lines = (small_run_dir / "cv_scores.csv").read_text().strip().splitlines()
    assert lines[0] == "C,mu,score"
    assert len(lines) == 3


def test_cv_does_not_stall_at_the_seed_11_mu_300_point(tmp_path):
    # With the s-block descent test alone, every fold's fit at (C=1, mu=300)
    # on generator seed 11 stalled at tau ~ 4e-6 (gradient fallbacks accepted
    # at alpha ~ 3e-14) until the iteration cap, and the point scored inf.
    cfg = RunConfig(seed=11, run_dir=str(tmp_path), c_grid=(1.0,), mu_grid=(300.0,))
    run_generate(cfg)
    result = run_cv(cfg)
    assert np.isfinite(result["best_score"])


def test_cli_cv_scores_a_fold_that_breaks_down_inf(small_run_dir, capsys, monkeypatch):
    # conjugate gradients on a Schur complement with negative curvature raise
    # NumericalBreakdownError in every fit; each fold is scored, not the run aborted
    monkeypatch.setattr(lsfa.newton, "_ASSEMBLE_FLOPS", 0)
    monkeypatch.setattr(lsfa.newton._SchurComplement, "_product", lambda self, x: -x)
    code = main(["cv", *SMALL, "--run-dir", str(small_run_dir), "--c-grid", "0.25,0.5",
                 "--mu-grid", "10", "--folds", "2"])
    assert code == 4
    result = _strict_json(capsys.readouterr().out.split("cv result:")[1].splitlines()[0])
    assert result["best_score"] is None
    lines = (small_run_dir / "cv_scores.csv").read_text().strip().splitlines()
    assert lines[1:] == ["0.25,10,inf", "0.5,10,inf"]


def test_cv_scores_inf_where_a_triangular_inverse_fails(small_run_dir, monkeypatch):
    # every fold's covariance is factored, and the inverse of its factor fails
    fail_lapack(monkeypatch, "trtri")
    cfg = RunConfig(p=6, r=2, n=200, seed=3, mu=10.0, run_dir=str(small_run_dir),
                    c_grid=(0.25, 0.5), mu_grid=(10.0,), folds=2)
    assert [row["score"] for row in run_cv(cfg)["table"]] == [np.inf, np.inf]


def test_cli_compare_exits_4_where_the_baselines_eigensolve_fails(small_run_dir, capsys,
                                                                   monkeypatch):
    fail_lapack(monkeypatch, "syevr")
    code = main(["compare", *SMALL, "--run-dir", str(small_run_dir), "--bcd-max-iters", "5"])
    err = capsys.readouterr().err.splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("numerical failure: lsfa compare on ")
    assert "LAPACK syevr returned info=1" in err[0]


def test_cv_warns_on_small_folds(small_run_dir):
    cfg = RunConfig(p=6, r=2, n=10, seed=3, gamma=0.1, mu=10.0,
                    run_dir=str(small_run_dir), c_grid=(0.5,), mu_grid=(10.0,), folds=5)
    write_matrix_csv(small_run_dir / "samples.csv",
                     np.random.default_rng(0).standard_normal((10, 6)))
    with pytest.warns(UserWarning, match="fold size"):
        run_cv(cfg)


@pytest.mark.parametrize("shape,p,expected", [
    ((60, 6), 40, None),
    ((75, 30), 10, "fold size 25 is below p=30"),
], ids=["config-p-above-variables", "config-p-below-variables"])
def test_cv_fold_size_warning_reads_the_samples(small_run_dir, monkeypatch, shape, p, expected):
    # the warning compares the fold size with the variables in the samples
    # file, whatever config.p says; the fits do not bear on it, so each fails
    write_matrix_csv(small_run_dir / "samples.csv",
                     np.random.default_rng(0).standard_normal(shape))

    def no_fit(config, problem):
        raise lsfa.DataError("not fitted")

    monkeypatch.setattr(lsfa.harness, "_fit", no_fit)
    cfg = RunConfig(p=p, run_dir=str(small_run_dir), c_grid=(0.5,), mu_grid=(10.0,), folds=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_cv(cfg)
    messages = [str(w.message) for w in caught if "fold size" in str(w.message)]
    assert [m.split(";")[0] for m in messages] == ([expected] if expected else [])


def test_cli_cv_on_two_variables_scores_inf_without_burning_the_step_cap(tmp_path, capsys,
                                                                        monkeypatch):
    # every fold's fit has levels that cannot reach the residual rule; they
    # ran to the 200-step cap (631-1027 steps a fit) and now end once their
    # iterates repeat, while the fit still reports the iteration cap
    write_matrix_csv(tmp_path / "samples.csv", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    fits = []
    solve = lsfa.harness.ipm_solve

    def spy(*args, **kwargs):
        fits.append(solve(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(lsfa.harness, "ipm_solve", spy)
    with pytest.warns(UserWarning, match="fold size"):
        code = main(["cv", "--run-dir", str(tmp_path), "--p", "2", "--r", "1",
                     "--c-grid", "0.5", "--mu-grid", "100"])
    assert code == 4
    result = _strict_json(capsys.readouterr().out.split("cv result:")[1].splitlines()[0])
    assert result["best_score"] is None
    assert len(fits) == 3
    assert {fit.status for fit in fits} == {"iteration-cap"}
    assert all(fit.n_outer == 19 and fit.n_inner_total < 150 for fit in fits)


def test_gaussian_nll_matches_direct_formula():
    rng = np.random.default_rng(3)
    cov = np.diag([2.0, 0.5])
    samples = rng.standard_normal((4, 2))
    inv = np.linalg.inv(cov)
    expected = np.mean([0.5 * (y @ inv @ y + np.log(np.linalg.det(cov))
                               + 2 * np.log(2 * np.pi)) for y in samples])
    assert_allclose(gaussian_nll(samples, cov), expected, rtol=1e-12)
