"""Command-line interface: generate, solve, compare, cv.

Exit codes: 0 success/converged, 2 invalid configuration, 3 I/O failure,
4 numerical failure (including non-converged solves, unusable input data,
and a cv grid in which every point has a fold whose fit did not converge).
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

from .errors import ConfigError, DataError, InfeasiblePointError, NumericalBreakdownError
from .harness import (FIELD_TYPES, RunConfig, config_from_dict, run_compare, run_cv,
                      run_generate, run_solve)

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsfa",
        description="Low-rank plus sparse covariance estimation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": "draw a synthetic instance and write samples plus ground truth",
        "solve": "run the interior-point solver on a samples or covariance file",
        "compare": "run the interior-point solver and the first-order baseline",
        "cv": "grid-search (C, mu) by k-fold held-out likelihood",
    }
    for name, help_text in commands.items():
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
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} must hold a JSON object of RunConfig fields")
        data.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        data[key] = value
    return config_from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "generate":
            run_generate(config)
            return 0
        if args.command == "solve":
            solution = run_solve(config)
            return 0 if solution.status == "converged" else 4
        if args.command == "compare":
            summary = run_compare(config)
            return 0 if summary["ipm"]["status"] == "converged" else 4
        if args.command == "cv":
            result = run_cv(config)
            # every grid point scored inf: each has a fold whose fit did not converge
            return 0 if math.isfinite(result["best_score"]) else 4
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (DataError, InfeasiblePointError, NumericalBreakdownError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
