"""Solver loop: surrogate, line search, momentum, and stopping.

The surrogate oracle ``surrogate_q`` is pinned by hand-computed values
below, and the surrogate each solve records is checked against it.
"""

import dataclasses
import math

import numpy as np
import pytest

from taskreg import fista
from taskreg.errors import DivergenceError, LineSearchError
from taskreg.fista import (
    BlockTraces,
    ProximalProblem,
    SolverConfig,
    SolveTrace,
    solve,
)

from oracles import ols_normal_equations, surrogate_q


def _identity_prox(h, step, rows=None):
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


def test_first_step_records_the_oracle_surrogate():
    # A one-iteration solve searches from its start point, so the surrogate
    # it records is the oracle's at the start point, the accepted step and
    # the accepted gamma.
    rng = np.random.default_rng(11)
    x_mat = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    phi0 = rng.normal(size=4)
    for problem in (
        _quadratic_problem(3.0),
        _least_squares_problem(x_mat, y),
        _lasso_problem(x_mat, y, 0.5),
    ):
        phi1, trace = solve(problem, phi0, SolverConfig(max_iters=1))
        assert trace.iterations == 1
        assert trace.objective_per_iter[0] < problem.full_objective(phi0)  # phi1 is the step
        expected = surrogate_q(problem, phi0, phi1, trace.gamma_per_iter[0])
        assert trace.surrogate_per_iter[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_first_step_of_each_block_records_the_oracle_surrogate():
    problem = _blocked_lasso(21, n_blocks=3)
    phi0 = np.random.default_rng(12).normal(size=(3, 6))
    phi1, traces = solve(problem, phi0, SolverConfig(max_iters=1))
    for b, trace in enumerate(traces):
        row = _row_problem(problem, b)
        assert trace.objective_per_iter[0] < row.full_objective(phi0[b])
        expected = surrogate_q(row, phi0[b], phi1[b], trace.gamma_per_iter[0])
        assert trace.surrogate_per_iter[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _one_step(problem, x0):
    """One solver iteration from x0, a plain backtracked step: (x1, accepted gamma)."""
    x1, trace = solve(problem, np.asarray(x0), SolverConfig(max_iters=1))
    return x1, trace.gamma_per_iter[0]


def test_backtracking_accepts_matching_curvature(monkeypatch):
    # A start gamma equal to the curvature is accepted at once, and the
    # step lands on the minimum.
    monkeypatch.setattr(fista, "_GAMMA0", 2.0)
    problem = _quadratic_problem(2.0)
    step, gamma = _one_step(problem, [1.0])
    np.testing.assert_allclose(step, [0.0], atol=1e-12)
    assert gamma == 2.0


def test_backtracking_doubles_to_curvature():
    # Curvature 16 from the start gamma 1 needs doublings 2, 4, 8, 16.
    problem = _quadratic_problem(16.0)
    _, gamma = _one_step(problem, [1.0])
    assert gamma == 16.0


def test_backtracking_unit_quadratic_reaches_zero():
    # The curvature matches the start gamma 1, so the first candidate is
    # accepted, and it is the minimum.
    problem = _quadratic_problem(1.0)
    step, gamma = _one_step(problem, [1.0])
    np.testing.assert_allclose(step, [0.0], atol=1e-12)
    assert gamma == 1.0


def test_backtracking_applies_prox():
    # The prox soft-thresholds by 1, the prox of ||x||_1 at step 1; solve
    # returns the best iterate, so the objective must rank the step first.
    problem = ProximalProblem(
        smooth_value=lambda x: 0.0,
        smooth_grad=lambda x: np.zeros_like(x),
        prox=lambda h, step: np.sign(h) * np.maximum(np.abs(h) - 1.0, 0.0),
        full_objective=lambda x: float(np.abs(x).sum()),
    )
    step, gamma = _one_step(problem, [3.0, -0.5])
    np.testing.assert_allclose(step, [2.0, 0.0])
    assert gamma == 1.0


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
    assert np.array_equal(traces["delayed"].objective_per_iter[:2],
                          traces["none"].objective_per_iter[:2])
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
    # The fields are read-only float64 arrays, so a trace compares by value and has no hash.
    assert all(
        f.dtype == np.float64 and not f.flags.writeable
        for f in (trace.objective_per_iter, gammas, smooth, surrogate)
    )
    assert trace == dataclasses.replace(trace, gamma_per_iter=gammas.copy())
    with pytest.raises(TypeError, match="unhashable"):
        hash(trace)


def test_line_search_error_on_inconsistent_gradient(monkeypatch):
    # Gradient with the wrong sign: no amount of curvature doubling can
    # satisfy the descent condition. Thirty doublings keep gamma below the
    # point where the descent slack would accept a step.
    monkeypatch.setattr(fista, "_MAX_BACKTRACKS", 30)
    problem = ProximalProblem(
        smooth_value=lambda x: float(np.vdot(x, x)),
        smooth_grad=lambda x: -2.0 * x,
        prox=_identity_prox,
        full_objective=lambda x: float(np.vdot(x, x)),
    )
    with pytest.raises(LineSearchError) as exc_info:
        solve(problem, np.array([1.0]))
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
    with pytest.raises(ValueError, match="momentum"):
        SolverConfig(momentum="nesterov")


def test_config_holds_the_settings_commands_set():
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert names == ["max_iters", "rel_tol", "momentum"]


@pytest.mark.parametrize("field", ["rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and .*, got {value}$"):
        SolverConfig(**{field: value})


def _all_rows(rows, n_rows):
    """The block indices a callback serves: ``rows``, or every block when it is None."""
    return np.arange(n_rows) if rows is None else rows


def _blocked_quadratic(curvatures, targets):
    """Row b: L_b(x) = (c_b/2) * ||x - t_b||^2, no nonsmooth part; one value per row."""
    c = np.asarray(curvatures, dtype=float)[:, None]
    t = np.asarray(targets, dtype=float)

    def value(x, rows=None):
        rows = _all_rows(rows, len(c))
        d = x - t[rows]
        return 0.5 * c[rows, 0] * (d * d).sum(axis=1)

    def grad(x, rows=None):
        rows = _all_rows(rows, len(c))
        return c[rows] * (x - t[rows])

    return ProximalProblem(smooth_value=value, smooth_grad=grad, prox=_identity_prox,
                           full_objective=value)


def _row_problem(problem, b):
    """Block b of a blocked problem as a one-block problem on a vector."""
    rows = np.array([b])

    return ProximalProblem(
        smooth_value=lambda x: float(problem.smooth_value(x[None], rows)[0]),
        smooth_grad=lambda x: problem.smooth_grad(x[None], rows)[0],
        prox=lambda h, step: problem.prox(h[None], step, rows)[0],
        full_objective=lambda x: float(problem.full_objective(x[None], rows)[0]),
    )


def _blocked_lasso(seed, n_blocks, n_features=6, lam=0.4):
    """One lasso problem per row, each on its own data."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_blocks, 15, n_features)) * rng.uniform(0.5, 4.0, size=(n_blocks, 1, 1))
    y = rng.normal(size=(n_blocks, 15))

    def resid(w, rows):
        rows = _all_rows(rows, n_blocks)
        return np.matmul(a[rows], w[:, :, None])[:, :, 0] - y[rows]

    def value(w, rows=None):
        r = resid(w, rows)
        return 0.5 * (r * r).sum(axis=1)

    def grad(w, rows=None):
        return np.matmul(resid(w, rows)[:, None, :], a[_all_rows(rows, n_blocks)])[:, 0, :]

    return ProximalProblem(
        smooth_value=value,
        smooth_grad=grad,
        prox=lambda h, step, rows=None: np.sign(h) * np.maximum(np.abs(h) - lam * step, 0.0),
        full_objective=lambda w, rows=None: value(w, rows) + lam * np.abs(w).sum(axis=1),
    )


@pytest.mark.parametrize("seed", range(5))
def test_scalar_problem_and_its_one_row_block_agree_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    x_mat = rng.normal(size=(60, 40))
    y = rng.normal(size=60)
    scalar = _lasso_problem(x_mat, y, lam=1.0)
    blocked = ProximalProblem(
        smooth_value=lambda x, rows=None: np.array([scalar.smooth_value(x[0])]),
        smooth_grad=lambda x, rows=None: scalar.smooth_grad(x[0])[None],
        prox=lambda h, step, rows=None: scalar.prox(h[0], step.flat[0])[None],
        full_objective=lambda x, rows=None: np.array([scalar.full_objective(x[0])]),
    )
    cfg = SolverConfig(max_iters=300, rel_tol=1e-10)
    w, trace = solve(scalar, np.zeros(40), cfg)
    w_rows, (trace_row,) = solve(blocked, np.zeros((1, 40)), cfg)
    assert np.array_equal(w, w_rows[0])
    assert trace.iterations == trace_row.iterations
    assert np.array_equal(trace.gamma_per_iter, trace_row.gamma_per_iter)
    assert np.array_equal(trace.surrogate_per_iter, trace_row.surrogate_per_iter)
    assert np.array_equal(trace.objective_per_iter, trace_row.objective_per_iter)


def test_blocked_solve_returns_one_trace_per_block():
    problem = _blocked_lasso(20, n_blocks=3)
    phi, traces = solve(problem, np.zeros((3, 6)), SolverConfig(max_iters=500, rel_tol=1e-10))
    assert isinstance(traces, BlockTraces) and len(traces) == 3
    assert all(isinstance(t, SolveTrace) and t.converged for t in traces)
    assert traces.iterations == sum(t.iterations for t in traces)
    assert len({t.iterations for t in traces}) > 1  # the blocks stop at different times
    assert phi.shape == (3, 6)


def _block_alone(problem, b):
    """Block b of a blocked problem as a blocked problem of one row."""
    one = np.array([b])
    return ProximalProblem(
        smooth_value=lambda x, rows=None: problem.smooth_value(x, one),
        smooth_grad=lambda x, rows=None: problem.smooth_grad(x, one),
        prox=lambda h, step, rows=None: problem.prox(h, step, one),
        full_objective=lambda x, rows=None: problem.full_objective(x, one),
    )


def test_blocks_at_the_cap_beside_a_stopped_block_match_their_own_solves():
    # Block 1 stops on the test after 58 iterations; blocks 0 and 2 run to the cap.
    problem = _blocked_lasso(20, n_blocks=3)
    cfg = SolverConfig(max_iters=60, rel_tol=1e-10)
    phi, traces = solve(problem, np.zeros((3, 6)), cfg)
    assert [(t.iterations, t.converged) for t in traces] == [(60, False), (58, True), (60, False)]
    for b in range(3):
        w, (alone,) = solve(_block_alone(problem, b), np.zeros((1, 6)), cfg)
        assert traces[b] == alone
        assert np.array_equal(phi[b], w[0])


def test_converged_block_no_longer_moves():
    # A stopped block leaves the batch: no callback sees its row again.
    # Block 0 is so flat that its objective stops changing, by the relative
    # test, after one step that leaves it far from its minimum; block 1 goes on.
    problem = _blocked_quadratic([1e-6, 3.0], [[1.0, -2.0], [0.0, 0.0]])
    seen = []

    def recorded(x, rows=None):
        seen.append((x.copy(), rows))
        return problem.full_objective(x, rows)

    phi, traces = solve(dataclasses.replace(problem, full_objective=recorded),
                        np.array([[0.0, 0.0], [5.0, 4.0]]),
                        SolverConfig(max_iters=200, rel_tol=1e-9))
    assert traces[0].iterations == 1 and traces[0].converged
    assert traces[1].iterations > 10
    # seen[0] is the start point, with every row; seen[l] the iterate accepted in iteration l.
    assert seen[0][1] is None
    np.testing.assert_array_equal(seen[1][1], [0, 1])
    stopped = seen[1][0][0]
    assert 0 < np.abs(stopped).max() < 1e-5  # one small step, nowhere near (1, -2)
    for x, rows in seen[2:]:
        np.testing.assert_array_equal(rows, [1])
        assert x.shape == (1, 2)
    np.testing.assert_array_equal(phi[0], stopped)


def _recording(problem, calls):
    """``problem`` with each callback's name and rows appended to ``calls`` on every call."""

    def record(name, fn):
        def recorded(*args):
            calls.append((name, args[-1] if len(args) > 1 + (name == "prox") else None))
            return fn(*args)

        return recorded

    return ProximalProblem(
        **{name: record(name, getattr(problem, name))
           for name in ("smooth_value", "smooth_grad", "prox", "full_objective")}
    )


@pytest.mark.parametrize("momentum", ["delayed", "standard", "none"])
def test_no_callback_sees_a_stopped_block(momentum):
    problem = _blocked_lasso(22, n_blocks=5)
    calls = []
    cfg = SolverConfig(max_iters=400, rel_tol=1e-9, momentum=momentum)
    _, traces = solve(_recording(problem, calls), np.zeros((5, 6)), cfg)
    assert len({t.iterations for t in traces}) > 1  # the blocks stop at different times
    assert calls[0] == ("full_objective", None)  # the start point, every block
    # Block b runs in iterations 1..traces[b].iterations; each ends in a full objective.
    iteration = 1
    for name, rows in calls[1:]:
        running = [b for b, trace in enumerate(traces) if iteration <= trace.iterations]
        np.testing.assert_array_equal(rows, running, err_msg=f"{name}, iteration {iteration}")
        iteration += name == "full_objective"
    grad_rows = sum(len(rows) for name, rows in calls if name == "smooth_grad")
    assert grad_rows == traces.iterations


@pytest.mark.parametrize("momentum", ["delayed", "standard", "none"])
def test_backtracking_block_leaves_other_gammas_alone(momentum):
    # Curvatures far apart: from gamma 1 the stiff blocks double their
    # gamma several times, the flat ones never do.
    problem = _blocked_lasso(21, n_blocks=4)
    cfg = SolverConfig(max_iters=400, rel_tol=1e-9, momentum=momentum)
    phi, traces = solve(problem, np.zeros((4, 6)), cfg)
    finals = {t.gamma_per_iter[-1] for t in traces}
    assert len(finals) > 1
    for b in range(4):
        w, solo = solve(_row_problem(problem, b), np.zeros(6), cfg)
        assert np.array_equal(traces[b].gamma_per_iter, solo.gamma_per_iter)
        assert (traces[b].iterations, traces[b].converged) == (solo.iterations, solo.converged)
        np.testing.assert_allclose(traces[b].objective_per_iter, solo.objective_per_iter,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(phi[b], w, rtol=0, atol=1e-12)


def _sum_of_squares(x, rows=None):
    return (x * x).sum(axis=1)


def test_line_search_error_from_a_blocked_problem(monkeypatch):
    # Block 1's gradient has the wrong sign; block 0 is a plain quadratic.
    monkeypatch.setattr(fista, "_MAX_BACKTRACKS", 30)
    def grad(x, rows=None):
        g = 2.0 * x
        g[1] *= -1.0
        return g

    problem = ProximalProblem(_sum_of_squares, grad, _identity_prox, _sum_of_squares)
    with pytest.raises(LineSearchError) as exc_info:
        solve(problem, np.ones((2, 3)))
    assert isinstance(exc_info.value.objective_trail, list)


def test_line_search_error_after_blocks_stopped_keeps_every_block_in_its_trail(monkeypatch):
    # Block 0 stops after one iteration; block 2's gradient turns to the wrong
    # sign in its fourth iteration, when only blocks 1 and 2 still run.
    monkeypatch.setattr(fista, "_MAX_BACKTRACKS", 30)
    problem = _blocked_quadratic([1e-6, 3.0, 5.0], [[1.0, -2.0], [0.0, 0.0], [1.0, 1.0]])
    grads = []

    def grad(x, rows=None):
        grads.append(rows)
        g = problem.smooth_grad(x, rows)
        if len(grads) >= 4:
            g[list(rows).index(2)] *= -1.0
        return g

    broken = dataclasses.replace(problem, smooth_grad=grad)
    phi0 = np.array([[0.0, 0.0], [5.0, 4.0], [-3.0, 2.0]])
    cfg = SolverConfig(max_iters=200, rel_tol=1e-9)
    with pytest.raises(LineSearchError) as exc_info:
        solve(broken, phi0, cfg)
    np.testing.assert_array_equal(grads[-1], [1, 2])
    trail = exc_info.value.objective_trail
    assert len(trail) == 3  # one entry per finished iteration
    assert all(isinstance(entry, float) and math.isfinite(entry) for entry in trail)
    # Each entry sums the blocks' objectives; a stopped block keeps its objective at its stop.
    _, traces = solve(problem, phi0, cfg)
    assert traces[0].iterations == 1 < traces[1].iterations
    for i, entry in enumerate(trail):
        assert entry == sum(t.objective_per_iter[min(i, t.iterations - 1)] for t in traces)


def test_divergence_error_from_a_blocked_problem():
    def at_start_inf(x, rows=None):
        out = _sum_of_squares(x)
        out[1] = np.inf
        return out

    def grad(x, rows=None):
        return 2.0 * x

    problem = ProximalProblem(at_start_inf, grad, _identity_prox, at_start_inf)
    with pytest.raises(DivergenceError, match="start point"):
        solve(problem, np.ones((2, 3)))

    # Block 1's full objective turns non-finite at its first iterate.
    calls = []

    def later_inf(x, rows=None):
        calls.append(x)
        return _sum_of_squares(x) if len(calls) == 1 else at_start_inf(x)

    problem = ProximalProblem(_sum_of_squares, grad, _identity_prox, later_inf)
    with pytest.raises(DivergenceError, match="iteration 1"):
        solve(problem, np.ones((2, 3)))


def test_blocked_objective_must_have_one_value_per_row():
    value = lambda x: np.zeros(3)  # noqa: E731
    problem = ProximalProblem(value, np.zeros_like, _identity_prox, value)
    with pytest.raises(ValueError, match="one value per row"):
        solve(problem, np.zeros((2, 3)))


def test_records_are_held_once():
    # 64 blocks that never meet rel_tol = 0 run all 300 iterations; their
    # records are 300 x 4 x 64 doubles. Holding them once, in one array grown
    # in place, the solve peaks near their size, not at a list of per-iteration
    # records plus the stacked copy of them.
    import tracemalloc

    n_blocks, iters = 64, 300
    centers = np.linspace(1.0, 2.0, 4 * n_blocks).reshape(n_blocks, 4)

    def value(x, rows=None):
        d = x - centers[rows if rows is not None else slice(None)]
        return 0.5 * (d * d).sum(axis=1)

    def grad(x, rows=None):
        return (x - centers[rows if rows is not None else slice(None)]) * 1e-3

    problem = ProximalProblem(value, grad, lambda h, step, rows=None: h, value)
    cfg = SolverConfig(max_iters=iters, rel_tol=0.0, momentum="none")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, traces = solve(problem, np.zeros((n_blocks, 4)), cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [t.iterations for t in traces] == [iters] * n_blocks
    records = iters * 4 * n_blocks * 8
    assert peak <= 1.25 * records + 64 * 1024, (peak, records)
    trace = traces[0]
    assert all(a.dtype == np.float64 and not a.flags.writeable for a in (
        trace.objective_per_iter, trace.gamma_per_iter, trace.smooth_per_iter,
        trace.surrogate_per_iter))
