import numpy as np
import pytest

import lsfa.objective
from lsfa import (
    BarrierObjective,
    Iterate,
    NewtonParams,
    ProblemData,
    SymmetricBasis,
    solve_tau_min,
)


def random_spd(rng, p, shift=1.0):
    """Well-conditioned random symmetric positive-definite matrix."""
    A = rng.standard_normal((p, p))
    return A @ A.T / p + shift * np.eye(p)


def random_interior_point(rng, p, shift=1.0):
    """Random strictly feasible iterate together with its basis."""
    basis = SymmetricBasis(p)
    L = random_spd(rng, p, shift)
    S = random_spd(rng, p, shift)
    return Iterate.from_matrices(L, S, basis), basis


def fail_lapack(monkeypatch, routine):
    """Make lsfa.objective's LAPACK binding _<routine> return info=1 after computing."""
    bound = getattr(lsfa.objective, f"_{routine}")

    def failing(*args, **kwargs):
        *outputs, _ = bound(*args, **kwargs)
        return (*outputs, 1)

    monkeypatch.setattr(lsfa.objective, f"_{routine}", failing)


@pytest.fixture(scope="session")
def small_instance():
    """A p=5 problem with a converged inner solve at a fixed barrier level."""
    rng = np.random.default_rng(11)
    p = 5
    sigma_check = random_spd(rng, p, shift=2.0)
    problem = ProblemData(sigma_check, C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(p)
    init = Iterate.from_matrices(0.5 * sigma_check, 0.5 * sigma_check, basis)
    params = NewtonParams(gamma=0.1, residual_tol=1e-6, max_inner_iters=300)
    result = solve_tau_min(init, barrier, params)
    assert result.status == "converged"
    return {
        "problem": problem,
        "barrier": barrier,
        "basis": basis,
        "init": init,
        "params": params,
        "result": result,
    }
