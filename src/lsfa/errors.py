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
    """A solve that is guaranteed to succeed by the problem structure failed.

    Raised when the Newton step's generalized eigendecomposition of (L, Sigma)
    fails, or when the Schur complement on s_T of the reduced Newton system
    (positive definite, since the reduced system is a principal submatrix of
    the positive-definite Hessian) fails: its Cholesky factorization, where
    the assembled complement preconditions, or the conjugate gradients every
    solve with it runs, which can meet nonpositive curvature or not converge
    within twice its size in iterations; the message then gives the size,
    the iterations taken and the relative residual reached.  This signals an
    assembly bug or catastrophic conditioning rather than a user error.
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
