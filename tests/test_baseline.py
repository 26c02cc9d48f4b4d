import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import lsfa.baseline
from lsfa import (
    BarrierObjective,
    BaselineParams,
    ConfigError,
    InfeasiblePointError,
    Iterate,
    ProblemData,
    SymmetricBasis,
    TraceRow,
    bcd_solve,
    default_init,
    eval_h_tau,
    grad_h_tau,
    prox_l0_vec,
    stationarity_residual,
)
from lsfa.baseline import outside_cone, pencil_top
from lsfa.newton import MAX_BACKTRACKS, fixed_barrier_loop
from lsfa.trace import _COLUMN_TYPES
from conftest import random_spd


@pytest.fixture(scope="module")
def bcd_run():
    # moderate barrier level so the first-order method converges quickly
    rng = np.random.default_rng(50)
    problem = ProblemData(random_spd(rng, 5, shift=2.0), C=0.5, mu=10.0)
    barrier = BarrierObjective(problem, tau=0.1)
    basis = SymmetricBasis(5)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    params = BaselineParams(gamma=0.1, max_iters=5000)
    result = bcd_solve(init, barrier, params)
    return problem, barrier, params, result


def test_params_validation():
    with pytest.raises(ValueError):
        BaselineParams(gamma=0.0)
    with pytest.raises(ValueError):
        BaselineParams(gamma=0.5, max_iters=0)
    # an iteration cap that is not an integer, or is a bool, is rejected when the class is built
    for bad in (2.5, 3.0, True):
        with pytest.raises(ConfigError, match="max_iters must be an integer"):
            BaselineParams(gamma=0.5, max_iters=bad)


@pytest.mark.parametrize("name", ["gamma", "residual_tol"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_params_reject_non_finite(name, bad):
    kwargs = dict(gamma=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        BaselineParams(**kwargs)


def test_bcd_converges_on_small_instance(bcd_run):
    _, _, params, result = bcd_run
    assert result.status == "converged"
    assert result.residual.norm_normalized <= params.residual_tol


def test_bcd_h_monotone(bcd_run):
    _, _, _, result = bcd_run
    hs = [row.objective_h_tau for row in result.rows]
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


def test_bcd_final_iterate_strictly_feasible(bcd_run):
    _, _, _, result = bcd_run
    assert result.iterate.is_strictly_feasible
    # finite h along the trace certifies feasibility of every accepted iterate
    assert all(np.isfinite(row.objective_h_tau) for row in result.rows)


def test_bcd_near_fixed_point_at_convergence(bcd_run):
    _, barrier, params, result = bcd_run
    it = result.iterate
    g_s = grad_h_tau(it, barrier)[1]
    moved = prox_l0_vec(it.s - params.gamma * g_s, params.gamma, barrier.problem.C)
    # zero block reproduced exactly; supported block moves by at most gamma*|g|
    zero = it.s == 0
    assert_allclose(moved[zero], 0.0)
    drift = np.abs(moved - it.s).max()
    assert drift <= params.gamma * np.abs(g_s).max() + 1e-15


def test_prox_fixed_point_algebraic():
    # if g vanishes on the support, entries at or above the keep threshold
    # and exact zeros reproduce themselves through the prox-gradient map
    gamma, C = 0.25, 1.0
    thr = np.sqrt(2 * gamma * C)
    s = np.array([2.0, 0.0, -thr * 1.01, 0.0])
    g = np.array([0.0, 0.5, 0.0, -1.0])  # |gamma*g| stays below thr off support
    stepped = prox_l0_vec(s - gamma * g, gamma, C)
    assert_allclose(stepped, s)


def test_bcd_trace_schema_matches_newton(bcd_run):
    problem, barrier, params, result = bcd_run
    row = result.rows[0]
    assert isinstance(row, TraceRow)
    assert row.direction_kind == "bcd"
    assert all((row.cg_iterations, row.cg_rtol) == (0, 0.0) for row in result.rows)
    # every column of every row holds exactly its declared type, as the Newton rows do
    assert all(type(getattr(row, name)) is kind
               for row in result.rows for name, kind in _COLUMN_TYPES.items())
    # a BCD step records the working set T at the point it started from
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check,
                                 SymmetricBasis(5))
    assert row.working_set_size == len(stationarity_residual(init, barrier, params.gamma).T)
    assert row.outer_iter == 0
    assert result.rows[-1].inner_iter == len(result.rows)


def _every_trial_bcd_solve(init, barrier, params):
    """bcd_solve with every ell trial built and evaluated, none skipped (the oracle)."""
    basis, C = init.basis, barrier.problem.C

    def step(it, g, res):
        h_here = eval_h_tau(it, barrier)
        g_ell = g[0]
        slope = float(g_ell @ g_ell)
        it_mid, h_mid, accepted_t, rejected = it, h_here, 0.0, 0
        if slope > 0:
            t = 1.0
            for _ in range(MAX_BACKTRACKS + 1):
                trial = Iterate(it.ell - t * g_ell, it.s, basis)
                h_trial = eval_h_tau(trial, barrier)
                if h_trial <= h_here - lsfa.baseline._ARMIJO_SLOPE * t * slope:
                    it_mid, h_mid, accepted_t = trial, h_trial, t
                    break
                t *= 0.5
                rejected += 1
        g_s_mid = grad_h_tau(it_mid, barrier)[1]
        gp, it_next = params.gamma, it_mid
        for _ in range(MAX_BACKTRACKS + 1):
            trial = Iterate(it_mid.ell, prox_l0_vec(it_mid.s - gp * g_s_mid, gp, C), basis)
            if eval_h_tau(trial, barrier) <= h_mid:
                it_next = trial
                break
            gp *= 0.5
            rejected += 1
        return it_next, dict(step_alpha=accepted_t, direction_kind="bcd",
                             working_set_size=len(res.T), n_backtracks=rejected)

    return fixed_barrier_loop(init, barrier, step, gamma=params.gamma,
                              residual_tol=params.residual_tol, max_iters=params.max_iters)


def _trace_values(rows):
    return [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_time_ns"} for row in rows]


def _assert_matches_every_trial_oracle(monkeypatch, problem, tau, L0, S0):
    """bcd_solve against the oracle on 30 iterations; returns the number of trials it skipped."""
    barrier = BarrierObjective(problem, tau)
    init = Iterate.from_matrices(L0, S0, SymmetricBasis(problem.p))
    params = BaselineParams(gamma=0.1, max_iters=30)
    expected = _every_trial_bcd_solve(init, barrier, params)
    built = []
    monkeypatch.setattr(lsfa.baseline, "Iterate", lambda *args: built.append(args) or Iterate(*args))
    result = bcd_solve(init, barrier, params)
    # the same iterates, trace values and rejection counts as building every trial
    assert _trace_values(result.rows) == _trace_values(expected.rows)
    assert np.array_equal(result.iterate.ell, expected.iterate.ell)
    assert np.array_equal(result.iterate.s, expected.iterate.s)
    assert result.status == expected.status
    backtracks = [row.n_backtracks for row in result.rows]
    assert max(backtracks) > 0
    # the ell step's halvings alone give alpha = 1 / 2^halvings
    assert all(row.step_alpha > 0 for row in result.rows)
    assert all(row.step_alpha >= 0.5**row.n_backtracks for row in result.rows)
    # a step builds its rejected trials plus one accepted trial per block,
    # less the trials it skipped outside the cone
    n_skipped = sum(backtracks) + 2 * result.n_iters - len(built)
    assert n_skipped > 0
    return n_skipped


def test_bcd_n_backtracks_counts_rejected_trials(monkeypatch):
    rng = np.random.default_rng(52)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    _assert_matches_every_trial_oracle(monkeypatch, problem, 0.1,
                                       0.5 * problem.sigma_check, 0.5 * problem.sigma_check)


def test_bcd_skips_most_trials_at_a_small_barrier_level(monkeypatch):
    # from default_init at tau ~ 2e-6, nearly every ell halving leaves the cone
    rng = np.random.default_rng(54)
    problem = ProblemData(random_spd(rng, 10, shift=2.0), C=0.5, mu=10.0)
    n_skipped = _assert_matches_every_trial_oracle(monkeypatch, problem, 0.5 * 0.5**18,
                                                   *default_init(problem))
    assert n_skipped > 200


@pytest.mark.parametrize("kind", ["indefinite", "negative-definite"])
def test_trials_outside_the_cone_fail_cholesky(kind):
    rng = np.random.default_rng(55)
    p = 8
    L = random_spd(rng, p, shift=1.0)
    B = rng.standard_normal((p, p))
    G = 20.0 * (B + B.T) if kind == "indefinite" else -random_spd(rng, p, shift=1.0)
    chol_inv_L = scipy.linalg.solve_triangular(np.linalg.cholesky(L), np.eye(p), lower=True)
    top = pencil_top(chol_inv_L, G)
    # the step's halvings from t = 1, and two points just past the bound
    ts = [0.5**k for k in range(MAX_BACKTRACKS + 1)]
    if top > 0:
        ts += [(1 + 1e-7) / top, (1 + 1e-3) / top]
    skipped = [t for t in ts if outside_cone(t, top)]
    for t in skipped:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(L - t * G)
    if kind == "negative-definite":
        # L - t G is PD for every t >= 0: nothing is skipped
        assert top <= 0 and not skipped
    else:
        assert len(skipped) > 2
        # just inside the bound the trial is built, and its L is PD
        np.linalg.cholesky(L - (1 - 1e-8) / top * G)
        assert not outside_cone((1 - 1e-8) / top, top)


def test_bcd_rejects_infeasible_init():
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    basis = SymmetricBasis(3)
    bad = Iterate.from_matrices(np.eye(3), -np.eye(3), basis)
    with pytest.raises(InfeasiblePointError):
        bcd_solve(bad, BarrierObjective(problem, 0.1), BaselineParams(gamma=0.5))


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bcd_rejects_non_finite_init(bad, where):
    problem = ProblemData(np.eye(3), C=1.0, mu=1.0)
    basis = SymmetricBasis(3)
    ell = basis.mat_to_vec(0.5 * np.eye(3))
    ell[np.flatnonzero(basis.off_diag == (where == "off-diagonal"))[0]] = bad
    init = Iterate(ell, basis.mat_to_vec(0.5 * np.eye(3)), basis)
    with pytest.raises(InfeasiblePointError):
        bcd_solve(init, BarrierObjective(problem, 0.1), BaselineParams(gamma=0.5))


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("kind", ["indefinite", "negative-definite"])
def test_pencil_top_matches_the_generalized_eigenvalue_problem(kind, cond):
    rng = np.random.default_rng(56)
    p = 40
    for _ in range(3):
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        L = (Q * np.geomspace(1.0, 1.0 / cond, p)) @ Q.T
        L = 0.5 * (L + L.T)
        B = rng.standard_normal((p, p))
        G = B + B.T if kind == "indefinite" else -random_spd(rng, p)
        expected = scipy.linalg.eigh(G, L, eigvals_only=True)[-1]
        chol_inv_L = scipy.linalg.solve_triangular(np.linalg.cholesky(L), np.eye(p), lower=True)
        top = pencil_top(chol_inv_L, G)
        # a hundredth of the cone margin, which outside_cone compares t * top to
        assert abs(top - expected) <= 1e-2 * lsfa.baseline._CONE_MARGIN * abs(expected)
        assert (top < 0) == (kind == "negative-definite")


def test_bcd_iteration_cap():
    rng = np.random.default_rng(51)
    problem = ProblemData(random_spd(rng, 4, shift=2.0), C=0.5, mu=10.0)
    basis = SymmetricBasis(4)
    init = Iterate.from_matrices(0.5 * problem.sigma_check, 0.5 * problem.sigma_check, basis)
    result = bcd_solve(init, BarrierObjective(problem, 0.1),
                       BaselineParams(gamma=0.1, max_iters=3))
    assert result.status == "iteration-cap"
    assert result.n_iters == 3
