import argparse
import inspect
import json
import os
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import (BaselineParams, ConfigError, IpmParams, TraceRow, ipm_solve, read_trace_csv,
                  recover_solution, write_trace_csv)
from lsfa.cli import build_parser, main
from lsfa.harness import (
    FIELD_TYPES,
    RunConfig,
    config_from_dict,
    gaussian_nll,
    read_matrix_csv,
    run_cv,
    run_generate,
    write_matrix_csv,
)

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
        )
        for k in range(25)
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert read_trace_csv(path) == rows


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
    with pytest.raises(ConfigError, match="sigma"):
        RunConfig(sigma=0.7).validate()


def test_config_defaults_are_the_solver_defaults():
    # RunConfig hands the solvers exactly what a library caller gets by default
    config = RunConfig()
    assert config.ipm_params() == IpmParams(gamma=RunConfig.gamma)
    assert config.baseline_params() == BaselineParams(gamma=RunConfig.gamma)
    for read_out in (ipm_solve, recover_solution):
        defaults = inspect.signature(read_out).parameters
        assert defaults["eta_rank"].default == config.eta_rank
        assert defaults["eta_supp"].default == config.eta_supp


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
@pytest.mark.filterwarnings("ignore:loadtxt")  # the empty file: "input contained no data"
def test_cli_malformed_matrix_file_is_data_error(tmp_path, capsys, flag, text):
    (tmp_path / "m.csv").write_text(text)
    assert main(["solve", "--run-dir", str(tmp_path), flag, "m.csv"]) == 4
    assert "cannot use the covariance from" in capsys.readouterr().err


def test_cli_cv_ragged_samples_is_data_error(tmp_path, capsys):
    (tmp_path / "samples.csv").write_text("1,2,3\n4,5\n")
    assert main(["cv", "--p", "3", "--r", "1", "--run-dir", str(tmp_path)]) == 4
    assert "is not a numeric CSV matrix" in capsys.readouterr().err


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
    (None, ["--seed", "-1"]),
], ids=["str-for-int", "number-for-grid", "float-for-int", "malformed-json", "not-an-object",
        "negative-seed"])
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, config, argv):
    args = ["generate", "--run-dir", str(tmp_path), *argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 2
    assert "invalid configuration" in capsys.readouterr().err


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


def test_cv_warns_on_small_folds(small_run_dir):
    cfg = RunConfig(p=6, r=2, n=10, seed=3, gamma=0.1, mu=10.0,
                    run_dir=str(small_run_dir), c_grid=(0.5,), mu_grid=(10.0,), folds=5)
    write_matrix_csv(small_run_dir / "samples.csv",
                     np.random.default_rng(0).standard_normal((10, 6)))
    with pytest.warns(UserWarning, match="fold size"):
        run_cv(cfg)


def test_gaussian_nll_matches_direct_formula():
    rng = np.random.default_rng(3)
    cov = np.diag([2.0, 0.5])
    samples = rng.standard_normal((4, 2))
    inv = np.linalg.inv(cov)
    expected = np.mean([0.5 * (y @ inv @ y + np.log(np.linalg.det(cov))
                               + 2 * np.log(2 * np.pi)) for y in samples])
    assert_allclose(gaussian_nll(samples, cov), expected, rtol=1e-12)
