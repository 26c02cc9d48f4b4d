"""Command-line interface: generate, solve, compare, cv.

Exit codes: 0 success/converged, 2 invalid configuration, 3 I/O failure,
4 numerical failure: a non-converged solve, a cv grid in which every point
has a fold whose fit did not converge, or an error in harness.FIT_FAILURES
(unusable input data, a breakdown, a floating-point overflow or invalid
operation), reported on one line naming the command and its input.  The
pipelines set the floating-point policy, so Python callers of run_* get
FloatingPointError too; cv scores a fold that fails inf, and summaries print
null for NaN and infinities.
Every RunConfig field has one flag, of the field's type; a JSON config file
may supply any subset, with explicit flags taking precedence.  The run
directory defaults to $LSFA_RUN_DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .errors import ConfigError
from .harness import (FIELD_TYPES, FIT_FAILURES, RunConfig, config_from_dict, run_compare,
                      run_cv, run_generate, run_solve)

# fields whose flag is not the field name with '-' for '_'
_FLAG_NAMES = {"samples_file": "samples", "covariance_file": "covariance"}
_HELP = {
    "samples_file": "samples CSV file name inside the run directory",
    "covariance_file": "covariance CSV to use directly instead of samples",
    "c_grid": "comma-separated C grid for cv",
    "mu_grid": "comma-separated mu grid for cv",
}


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers: {exc}")


# field type -> argparse converter; str fields keep the text as given
_PARSERS = {int: int, float: float, tuple[float, ...]: _grid}
# command -> (help, pipeline, whether the pipeline's result is a success,
#             the input it reads, which the exit-4 line names)
_COMMANDS = {
    "generate": ("draw a synthetic instance and write samples plus ground truth",
                 run_generate, lambda summary: True,
                 lambda config: f"the instance drawn from seed {config.seed}"),
    "solve": ("run the interior-point solver on a samples or covariance file",
              run_solve, lambda solution: solution.status == "converged", RunConfig.problem_file),
    "compare": ("run the interior-point solver and the first-order baseline",
                run_compare, lambda summary: summary["ipm"]["status"] == "converged",
                RunConfig.problem_file),
    # a finite best score: some grid point has every fold's fit converged
    "cv": ("grid-search (C, mu) by k-fold held-out likelihood",
           run_cv, lambda result: math.isfinite(result["best_score"]),
           lambda config: config.path(config.samples_file)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsfa",
        description="Low-rank plus sparse covariance estimation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON file with RunConfig fields")
        for f in fields(RunConfig):
            flag = "--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
            cmd.add_argument(flag, dest=f.name, type=_PARSERS.get(FIELD_TYPES[f.name]),
                             help=_HELP.get(f.name))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} must hold a JSON object of RunConfig fields")
        data.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        data[key] = value
    return config_from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, pipeline, succeeded, reads = _COMMANDS[args.command]
    try:
        config = config_from_args(args)
        return 0 if succeeded(pipeline(config)) else 4
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except FIT_FAILURES as exc:
        print(f"numerical failure: lsfa {args.command} on {reads(config)}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
