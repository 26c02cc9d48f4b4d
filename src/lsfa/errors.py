"""Exception types shared across the solver stack, and the shared range checks."""

import math
import numbers


class ConfigError(ValueError):
    """A parameter or configuration value violates its documented range."""


class DataError(ValueError):
    """Input data cannot define a well-posed problem (e.g. a singular sample covariance)."""


class InfeasiblePointError(ValueError):
    """An operation required a strictly positive-definite iterate and did not get one."""


class NumericalBreakdownError(RuntimeError):
    """A computation that the problem's structure guarantees to succeed failed.

    At a strictly feasible point every matrix the solvers factor, invert,
    eigendecompose or solve with is one those routines cannot fail on: a
    positive-definite block or Schur complement, the nonsingular factor of
    one, a symmetric reduced pencil.  So a failure signals an assembly bug
    or catastrophic conditioning rather than a user error.  The message
    names what failed on which matrix: a LAPACK routine with its info, a
    factorization, or conjugate gradients with the system's size, the
    iterations taken and the relative residual reached.
    """


def require_positive(**values: float) -> None:
    """Raise ConfigError naming the first of `values` that is not finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")


def require_count(least: int = 1, /, **values: int) -> None:
    """Raise ConfigError naming the first of `values` that is not an integer >= least (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def require_fraction(**values: float) -> None:
    """Raise ConfigError naming the first of `values` that is not in the open interval (0, 1)."""
    for name, value in values.items():
        if not 0 < value < 1:
            raise ConfigError(f"{name} must be in (0, 1), got {value}")
