"""Solver loop: surrogate, line search, momentum, and stopping."""

import math

import numpy as np
import pytest

from taskreg.errors import DivergenceError, LineSearchError
from taskreg.fista import (
    ProximalProblem,
    SolverConfig,
    backtracking_step,
    solve,
    surrogate_q,
)

from oracles import ols_normal_equations


def _identity_prox(h, step):
    return h


def _quadratic_problem(curvature):
    """L(x) = (curvature/2) * ||x||^2, no nonsmooth part."""
    return ProximalProblem(
        smooth_value=lambda x: 0.5 * curvature * float(np.vdot(x, x)),
        smooth_grad=lambda x: curvature * x,
        prox=_identity_prox,
        full_objective=lambda x: 0.5 * curvature * float(np.vdot(x, x)),
    )


def _least_squares_problem(x_mat, y):
    def loss(w):
        r = x_mat @ w - y
        return 0.5 * float(r @ r)

    return ProximalProblem(
        smooth_value=loss,
        smooth_grad=lambda w: x_mat.T @ (x_mat @ w - y),
        prox=_identity_prox,
        full_objective=loss,
    )


def _lasso_problem(x_mat, y, lam):
    def loss(w):
        r = x_mat @ w - y
        return 0.5 * float(r @ r)

    def prox(h, step):
        return np.sign(h) * np.maximum(np.abs(h) - lam * step, 0.0)

    return ProximalProblem(
        smooth_value=loss,
        smooth_grad=lambda w: x_mat.T @ (x_mat @ w - y),
        prox=prox,
        full_objective=lambda w: loss(w) + lam * float(np.abs(w).sum()),
    )


def test_surrogate_q_at_search_point():
    problem = _quadratic_problem(2.0)
    s = np.array([1.0, 2.0])
    assert surrogate_q(problem, s, s, gamma=3.0) == pytest.approx(5.0)


def test_surrogate_q_quadratic_term_only():
    problem = ProximalProblem(
        smooth_value=lambda x: 0.0,
        smooth_grad=lambda x: np.zeros_like(x),
        prox=_identity_prox,
        full_objective=lambda x: 0.0,
    )
    phi = np.array([2.0, 0.0])  # ||phi||^2 = 4
    q = surrogate_q(problem, np.zeros(2), phi, gamma=2.0)
    assert q == pytest.approx(4.0)


def test_surrogate_q_linear_term():
    grad = np.array([3.0, -1.0])
    problem = ProximalProblem(
        smooth_value=lambda x: 1.0,
        smooth_grad=lambda x: grad,
        prox=_identity_prox,
        full_objective=lambda x: 1.0,
    )
    phi = np.array([1.0, 1.0])
    # 1 + (gamma/2)*2 + <phi, grad> = 1 + 4 + 2 = 7
    assert surrogate_q(problem, np.zeros(2), phi, gamma=4.0) == pytest.approx(7.0)


def test_surrogate_q_errors():
    problem = _quadratic_problem(1.0)
    with pytest.raises(ValueError, match="shape"):
        surrogate_q(problem, np.zeros(2), np.zeros(3), gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        surrogate_q(problem, np.zeros(2), np.zeros(2), gamma=0.0)


def test_backtracking_accepts_matching_curvature():
    problem = _quadratic_problem(2.0)
    step, gamma = backtracking_step(problem, np.array([1.0]), gamma_prev=2.0, cfg=SolverConfig())
    np.testing.assert_allclose(step, [0.0], atol=1e-12)
    assert gamma == 2.0


def test_backtracking_doubles_to_curvature():
    # Curvature 16 from gamma_prev 1 needs doublings 2, 4, 8, 16.
    problem = _quadratic_problem(16.0)
    _, gamma = backtracking_step(problem, np.array([1.0]), gamma_prev=1.0, cfg=SolverConfig())
    assert gamma == 16.0


def test_backtracking_unit_quadratic_reaches_zero():
    problem = _quadratic_problem(1.0)
    step, gamma = backtracking_step(problem, np.array([1.0]), gamma_prev=1.0, cfg=SolverConfig())
    np.testing.assert_allclose(step, [0.0], atol=1e-12)
    assert gamma == 1.0


def test_backtracking_applies_prox():
    problem = ProximalProblem(
        smooth_value=lambda x: 0.0,
        smooth_grad=lambda x: np.zeros_like(x),
        prox=lambda h, step: np.sign(h) * np.maximum(np.abs(h) - 1.0, 0.0),
        full_objective=lambda x: 0.0,
    )
    step, gamma = backtracking_step(
        problem, np.array([3.0, -0.5]), gamma_prev=1.0, cfg=SolverConfig()
    )
    np.testing.assert_allclose(step, [2.0, 0.0])
    assert gamma == 1.0


def test_backtracking_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma_prev"):
        backtracking_step(_quadratic_problem(1.0), np.zeros(1), gamma_prev=0.0, cfg=SolverConfig())


def test_solve_matches_normal_equations():
    rng = np.random.default_rng(11)
    x_mat = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    problem = _least_squares_problem(x_mat, y)
    cfg = SolverConfig(max_iters=5000, rel_tol=1e-14)
    w_hat, trace = solve(problem, np.zeros(5), cfg)
    w_ols = ols_normal_equations(x_mat, y)
    np.testing.assert_allclose(w_hat, w_ols, atol=1e-6)
    assert trace.converged


def test_solve_from_solution_stays_put():
    rng = np.random.default_rng(12)
    x_mat = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    w_ols = ols_normal_equations(x_mat, y)
    problem = _least_squares_problem(x_mat, y)
    w_hat, trace = solve(problem, w_ols, SolverConfig(rel_tol=1e-10))
    np.testing.assert_allclose(w_hat, w_ols, atol=1e-8)
    assert trace.iterations <= 3


def test_solve_constant_objective_converges_immediately():
    problem = ProximalProblem(
        smooth_value=lambda x: 0.0,
        smooth_grad=lambda x: np.zeros_like(x),
        prox=_identity_prox,
        full_objective=lambda x: 0.0,
    )
    phi0 = np.array([[1.0, -2.0], [0.5, 4.0]])
    phi, trace = solve(problem, phi0)
    np.testing.assert_array_equal(phi, phi0)
    assert trace.converged
    assert trace.iterations == 1


def test_all_momentum_modes_reach_same_solution():
    rng = np.random.default_rng(13)
    x_mat = rng.normal(size=(50, 8))
    y = rng.normal(size=50)
    problem = _lasso_problem(x_mat, y, lam=2.0)
    finals = {}
    for mode in ("delayed", "standard", "none"):
        cfg = SolverConfig(max_iters=6000, rel_tol=1e-14, momentum=mode)
        _, trace = solve(problem, np.zeros(8), cfg)
        finals[mode] = min(trace.objective_per_iter)
    assert finals["delayed"] == pytest.approx(finals["none"], rel=1e-8)
    assert finals["standard"] == pytest.approx(finals["none"], rel=1e-8)


def test_delayed_momentum_first_two_steps_are_plain():
    # alpha_1 = alpha_2 = 0 under the delayed schedule, so the first two
    # objective values coincide with momentum disabled.
    rng = np.random.default_rng(14)
    x_mat = rng.normal(size=(20, 6))
    y = rng.normal(size=20)
    problem = _lasso_problem(x_mat, y, lam=0.5)
    traces = {}
    for mode in ("delayed", "none", "standard"):
        _, traces[mode] = solve(
            problem, np.zeros(6), SolverConfig(max_iters=3, rel_tol=0.0, momentum=mode)
        )
    assert traces["delayed"].objective_per_iter[:2] == traces["none"].objective_per_iter[:2]
    # The standard schedule also starts with a plain prox step.
    assert traces["standard"].objective_per_iter[0] == traces["none"].objective_per_iter[0]
    # By the third iteration the delayed schedule has nonzero momentum.
    assert traces["delayed"].objective_per_iter[2] != traces["none"].objective_per_iter[2]


def test_ista_is_monotone():
    rng = np.random.default_rng(15)
    x_mat = rng.normal(size=(30, 10))
    y = rng.normal(size=30)
    problem = _lasso_problem(x_mat, y, lam=1.0)
    _, trace = solve(problem, np.zeros(10), SolverConfig(max_iters=200, rel_tol=0.0, momentum="none"))
    diffs = np.diff(np.asarray(trace.objective_per_iter))
    assert np.all(diffs <= 1e-9)


def test_trace_invariants():
    rng = np.random.default_rng(16)
    x_mat = rng.normal(size=(40, 7))
    y = rng.normal(size=40)
    problem = _lasso_problem(x_mat, y, lam=0.3)
    phi0 = np.zeros(7)
    best, trace = solve(problem, phi0, SolverConfig(max_iters=100, rel_tol=0.0))
    assert trace.iterations == len(trace.objective_per_iter) == 100
    assert not trace.converged
    gammas = np.asarray(trace.gamma_per_iter)
    assert np.all(gammas > 0)
    assert np.all(np.diff(gammas) >= 0)  # gamma is never decreased
    smooth = np.asarray(trace.smooth_per_iter)
    surrogate = np.asarray(trace.surrogate_per_iter)
    assert np.all(smooth <= surrogate + 1e-9)
    # Best-iterate return: nothing in the trace beats the returned point.
    f_best = problem.full_objective(best)
    assert f_best <= min(trace.objective_per_iter) + 1e-15
    assert f_best <= problem.full_objective(phi0)


def test_restart_on_increase_still_solves():
    rng = np.random.default_rng(17)
    x_mat = rng.normal(size=(25, 5))
    y = rng.normal(size=25)
    problem = _least_squares_problem(x_mat, y)
    cfg = SolverConfig(max_iters=4000, rel_tol=1e-14, restart_on_increase=True)
    w_hat, _ = solve(problem, np.zeros(5), cfg)
    np.testing.assert_allclose(w_hat, ols_normal_equations(x_mat, y), atol=1e-6)


def test_line_search_error_on_inconsistent_gradient():
    # Gradient with the wrong sign: no amount of curvature doubling can
    # satisfy the descent condition.
    problem = ProximalProblem(
        smooth_value=lambda x: float(np.vdot(x, x)),
        smooth_grad=lambda x: -2.0 * x,
        prox=_identity_prox,
        full_objective=lambda x: float(np.vdot(x, x)),
    )
    with pytest.raises(LineSearchError) as exc_info:
        solve(problem, np.array([1.0]), SolverConfig(max_backtracks=30))
    assert isinstance(exc_info.value.objective_trail, list)


def test_divergence_error_at_start():
    problem = ProximalProblem(
        smooth_value=lambda x: float("inf"),
        smooth_grad=lambda x: np.zeros_like(x),
        prox=_identity_prox,
        full_objective=lambda x: float("inf"),
    )
    with pytest.raises(DivergenceError, match="start point"):
        solve(problem, np.zeros(2))


def test_momentum_retreats_outside_smooth_domain():
    # Smooth part is +inf outside |x| <= 1.2; the extrapolated point can
    # leave that interval, and the solver must fall back to a plain step
    # rather than dividing by inf.
    def value(x):
        return float(np.vdot(x, x)) if np.all(np.abs(x) <= 1.2) else float("inf")

    problem = ProximalProblem(
        smooth_value=value,
        smooth_grad=lambda x: 2.0 * x,
        prox=lambda h, step: np.clip(h, -1.2, 1.2),
        full_objective=value,
    )
    w_hat, trace = solve(problem, np.array([1.0]), SolverConfig(max_iters=500, rel_tol=1e-14))
    np.testing.assert_allclose(w_hat, [0.0], atol=1e-6)


def test_config_validation():
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="rel_tol"):
        SolverConfig(rel_tol=-1e-9)
    with pytest.raises(ValueError, match="gamma0"):
        SolverConfig(gamma0=0.0)
    with pytest.raises(ValueError, match="backtrack_factor"):
        SolverConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError, match="momentum"):
        SolverConfig(momentum="nesterov")


@pytest.mark.parametrize("field", ["rel_tol", "gamma0", "backtrack_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and .*, got {value}$"):
        SolverConfig(**{field: value})
