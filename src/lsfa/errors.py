"""Exception types shared across the solver stack, and the shared range check."""

import math


class ConfigError(ValueError):
    """A parameter or configuration value violates its documented range."""


class DataError(ValueError):
    """Input data cannot define a well-posed problem (e.g. a singular sample covariance)."""


class InfeasiblePointError(ValueError):
    """An operation required a strictly positive-definite iterate and did not get one."""


class NumericalBreakdownError(RuntimeError):
    """A factorization that is guaranteed to exist by the problem structure failed.

    Raised when the Newton step's generalized eigendecomposition of (L, Sigma)
    fails, or when the Schur complement on s_T of the reduced Newton system
    (positive definite, since the reduced system is a principal submatrix of
    the positive-definite Hessian) cannot be Cholesky-factorized; this signals
    an assembly bug or catastrophic conditioning rather than a user error.
    """


def require_positive(**values: float) -> None:
    """Raise ConfigError naming the first of `values` that is not finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
