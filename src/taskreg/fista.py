"""Accelerated proximal gradient descent with backtracking line search.

Minimizes F(x) = L(x) + R(x) where L is smooth with an available gradient
and R admits a proximal map. The scheme is FISTA (Beck and Teboulle, 2009)
with a backtracked curvature estimate: each iteration forms a momentum
search point S, then doubles the curvature gamma until the smooth part at
the proximal candidate is dominated by its quadratic surrogate at S. The
accepted gamma seeds the next iteration and is never decreased.

The momentum schedule is configurable. The default, ``"delayed"``, uses
alpha_l = (d_{l-2} - 1) / d_{l-1} with d_{-1} = 0, d_0 = 1, which makes
the first two steps plain proximal steps. ``"standard"`` is the classic
Nesterov indexing alpha_l = (d_{l-1} - 1) / d_l, and ``"none"`` disables
momentum entirely (plain proximal gradient, i.e. ISTA).

A problem may also be a stack of independent problems, one per row of x
(see :func:`solve`). Each row, or block, then runs the same iteration on
its own: its own gamma, best iterate and stopping test. A block that
stops leaves the batch, and the solver goes on with the rest. There is
one iteration path: a problem with a scalar objective runs as a stack
of one row. Each iteration leaves one record with every block's
objective, gamma, smooth value and surrogate, NaN for a block that has
stopped; the traces and a solver error's objective trail are read from
these records, which are held in one array grown in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import _append, _integer, _nonnegative, _value_eq
from .errors import DivergenceError, LineSearchError

_MOMENTUM_MODES = ("delayed", "standard", "none")

# Acceptance slack for the descent test, pure roundoff scale. Without it a
# candidate equal to S can fail L <= Q by one ulp and double gamma forever.
_DESCENT_SLACK = 1e-12

# The line search starts each block at gamma 1 and doubles it at most 100 times.
_GAMMA0 = 1.0
_BACKTRACK_FACTOR = 2.0
_MAX_BACKTRACKS = 100


@dataclass(frozen=True)
class ProximalProblem:
    """Callbacks defining one composite minimization problem.

    Parameters
    ----------
    smooth_value : callable
        x -> value of the smooth part L(x). May return +inf outside the
        domain of L; the solver then retreats to a non-extrapolated
        search point.
    smooth_grad : callable
        x -> gradient of L, same shape as x.
    prox : callable
        (h, step) -> argmin_p 0.5*||p - h||_F^2 + step * R(p). The step
        argument is 1/gamma; problems whose R is an indicator function
        may ignore it.
    full_objective : callable
        x -> L(x) + R(x), used for stopping and best-iterate tracking.

    For a blocked problem ``smooth_value`` and ``full_objective`` return
    one value per row of x, and ``prox`` gets ``step`` as an array with
    one entry per row, shaped to broadcast against x. Each callback of a
    blocked problem also takes the indices of the rows that x holds as a
    last argument, ``rows``, and treats a missing one as all rows (see
    :func:`solve`). A problem whose objective is a scalar takes no
    ``rows`` and gets a scalar ``step``; the solver runs it as a blocked
    problem of one row.
    """

    smooth_value: Callable[[np.ndarray], float]
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]
    full_objective: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SolverConfig:
    """When :func:`solve` stops and how it extrapolates; construction checks each setting."""

    max_iters: int = 1000
    rel_tol: float = 1e-6
    momentum: str = "delayed"

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        object.__setattr__(self, "rel_tol", _nonnegative(self.rel_tol, "rel_tol"))
        if self.momentum not in _MOMENTUM_MODES:
            raise ValueError(f"momentum must be one of {_MOMENTUM_MODES}, got {self.momentum!r}")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration diagnostics of one solve run.

    ``objective_per_iter[i]`` is the full objective at the iterate
    accepted in iteration i+1, ``gamma_per_iter[i]`` the accepted
    curvature. ``smooth_per_iter`` and ``surrogate_per_iter`` hold the two
    sides of the accepted descent test L(x_next) <= Q_gamma(S, x_next).
    Each is a read-only float64 array of ``iterations`` entries, a view
    into the records of the solve it came from. ``==`` compares values;
    a trace is not hashable, since its fields are arrays.
    """

    objective_per_iter: np.ndarray
    gamma_per_iter: np.ndarray
    smooth_per_iter: np.ndarray
    surrogate_per_iter: np.ndarray
    iterations: int
    converged: bool

    __eq__ = _value_eq


class BlockTraces(tuple):
    """The :class:`SolveTrace` of each block of a blocked solve, in row order.

    ``iterations`` is their sum, what as many separate solves would take.
    """

    @property
    def iterations(self) -> int:
        return sum(trace.iterations for trace in self)


def _rows(v, x):
    """Per-block ``v`` shaped to broadcast against x, one block per row."""
    return v.reshape(v.shape + (1,) * (x.ndim - 1))


def _where(mask, new, old):
    """``new`` in the blocks where ``mask`` holds, ``old`` in the others."""
    return new if mask.all() else np.where(_rows(mask, new), new, old)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over each block, each summed as one BLAS dot, as ``np.vdot`` sums it."""
    n = len(a)
    return np.matmul(a.reshape(n, 1, -1), b.reshape(n, -1, 1)).reshape(n)


def _callbacks(problem: ProximalProblem, rows: np.ndarray, scalar: bool):
    """The four callbacks, each given ``rows`` last; values come back as float arrays.

    A ``scalar`` problem runs as a blocked problem of one row: its callbacks get x[0].
    """
    if scalar:
        return (
            lambda x: np.array([problem.smooth_value(x[0])], dtype=np.float64),
            lambda x: problem.smooth_grad(x[0])[None],
            lambda h, step: problem.prox(h[0], step.flat[0])[None],
            lambda x: np.array([problem.full_objective(x[0])], dtype=np.float64),
        )
    return (
        lambda x: np.asarray(problem.smooth_value(x, rows), dtype=np.float64),
        lambda x: problem.smooth_grad(x, rows),
        lambda h, step: problem.prox(h, step, rows),
        lambda x: np.asarray(problem.full_objective(x, rows), dtype=np.float64),
    )


def _trail(records: np.ndarray) -> list[float]:
    """The objectives so far, for a solver error, from the (iterations, blocks, 4) records.

    One float per iteration: the sum over all blocks, in which a stopped
    block keeps its objective at its stop.
    """
    trail, latest = [], np.nan
    for f in records[..., 0]:
        latest = np.where(np.isnan(f), latest, f)
        trail.append(float(latest.sum()))
    return trail


def _backtrack(smooth_value, prox, s, smooth_s, grad_s, gamma, records):
    """Double each block's gamma until its descent condition holds.

    Returns (candidate, gamma, smooth_at_candidate, surrogate_value); a
    block's candidate is its first trial that passes. ``records`` give the
    objective trail for the error raised when a block never passes.
    """
    slack = _DESCENT_SLACK * np.maximum(1.0, np.abs(smooth_s))
    pending = None
    for _ in range(_MAX_BACKTRACKS + 1):
        gamma_rows = _rows(gamma, s)
        trial = prox(s - grad_s / gamma_rows, 1.0 / gamma_rows)
        # A trial that overflows fails the descent test, and its gamma doubles.
        with np.errstate(over="ignore", invalid="ignore"):
            smooth_trial = smooth_value(trial)
            delta = trial - s
            q_trial = smooth_s + 0.5 * gamma * _inner(delta, delta) + _inner(delta, grad_s)
        accept = smooth_trial <= q_trial + slack
        if pending is None:
            # The first trial; a block that fails it is overwritten when it passes.
            candidate, smooth_cand, q, pending = trial, smooth_trial, q_trial, ~accept
        else:
            accept = pending & accept
            candidate = _where(accept, trial, candidate)
            smooth_cand = _where(accept, smooth_trial, smooth_cand)
            q = _where(accept, q_trial, q)
            pending = pending & ~accept
        if not np.count_nonzero(pending):
            return candidate, gamma, smooth_cand, q
        gamma = _where(pending, gamma * _BACKTRACK_FACTOR, gamma)
    raise LineSearchError(
        f"no acceptable step after {_MAX_BACKTRACKS} backtracks "
        f"(gamma reached {gamma[pending].max():.3g}); "
        "smooth gradient may be inconsistent",
        _trail(records),
    )


def _d_next(d):
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * d * d))


def solve(
    problem: ProximalProblem, phi0: np.ndarray, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolveTrace | BlockTraces]:
    """Run the accelerated proximal gradient loop from phi0.

    Stops when the relative objective change |F_l - F_{l-1}| /
    max(1, |F_{l-1}|) drops below cfg.rel_tol, or after cfg.max_iters
    iterations. FISTA is not monotone, so the best-objective iterate seen
    is returned rather than the last one.

    When ``full_objective`` returns one value per row of x, each row is
    an independent block with its own gamma, best iterate and stopping
    test (the momentum schedule is the same for all), so every row
    follows the iterates of its own solve. A block that stops leaves the
    batch: its best iterate goes into the result, and the solver carries
    on with the rows of the blocks still running. After the first
    objective, at phi0, it calls each callback of a blocked problem with
    those rows only and with their indices, an ascending read-only
    integer array, as the last argument: ``smooth_value(x, rows)``,
    ``smooth_grad(x, rows)``, ``prox(h, step, rows)`` and
    ``full_objective(x, rows)``, where row i of x is block ``rows[i]``. A
    new array is passed whenever blocks stop. The trace is then a
    :class:`BlockTraces` with one trace per row.

    There is one iteration path: when ``full_objective`` returns a scalar,
    the problem runs as a blocked problem of one row, and the trace is
    that row's :class:`SolveTrace`.

    Each iteration writes one (blocks, 4) record: the objective, gamma,
    smooth value and surrogate of every block, NaN for a block that has
    stopped. The records are rows of one array, grown in place by each,
    and a block's trace holds read-only views of its entries of that
    array up to its first NaN, so its iteration count is their length. A
    solver error's ``objective_trail`` has one float per finished
    iteration, the objective summed over the blocks, a stopped block
    counting with its objective at its stop.

    Raises
    ------
    LineSearchError
        If backtracking exceeds its doubling budget in any block.
    DivergenceError
        If the objective is non-finite at the start point or any iterate.
    """
    if cfg is None:
        cfg = SolverConfig()
    phi_curr = np.array(phi0, dtype=np.float64)

    f_prev = np.asarray(problem.full_objective(phi_curr), dtype=np.float64)
    if f_prev.shape not in ((), phi_curr.shape[:1]):
        raise ValueError(
            f"objective of shape {f_prev.shape} is neither a scalar nor one value per row of "
            f"x of shape {phi_curr.shape}"
        )
    if not np.isfinite(f_prev).all():
        raise DivergenceError(f"objective is non-finite at the start point ({f_prev[()]})")
    scalar = f_prev.ndim == 0
    if scalar:
        phi_curr, f_prev = phi_curr[None], f_prev[None]
    phi_prev = best_phi = phi_curr
    best_f = f_prev

    # The running blocks, and what each block has when it stops: its best
    # iterate and whether it met the stopping test.
    n_blocks = len(f_prev)
    rows = np.arange(n_blocks)
    rows.setflags(write=False)
    result = np.empty_like(phi_curr)
    converged = np.zeros(n_blocks, dtype=bool)
    smooth_value, smooth_grad, prox, full_objective = _callbacks(problem, rows, scalar)

    # Per iteration, the objective, gamma, smooth value and surrogate of each
    # block, NaN for a block that has stopped; no view of it outlives an iteration.
    records = np.empty((0, n_blocks, 4))

    gamma = np.full(n_blocks, _GAMMA0)
    d_prev_prev, d_prev = 0.0, 1.0  # d_{l-2}, d_{l-1}

    for l in range(1, cfg.max_iters + 1):
        if cfg.momentum == "none":
            alpha = 0.0
        elif cfg.momentum == "delayed":
            # (d_{l-2} - 1)/d_{l-1}; the first difference Phi^(1) - Phi^(0)
            # is zero, so alpha_1 is immaterial and recorded as 0.
            alpha = 0.0 if l == 1 else (d_prev_prev - 1.0) / d_prev
        else:  # standard
            alpha = (d_prev - 1.0) / _d_next(d_prev)

        s = phi_curr if alpha == 0.0 else phi_curr + alpha * (phi_curr - phi_prev)
        smooth_s = smooth_value(s)
        if not np.isfinite(smooth_s).all():
            if alpha != 0.0:
                # Momentum overshot the smooth domain (possible for
                # constrained problems); retreat to the plain step.
                retreat = ~np.isfinite(smooth_s)
                s = _where(retreat, phi_curr, s)
                smooth_s = _where(retreat, smooth_value(s), smooth_s)
            if not np.isfinite(smooth_s).all():
                raise DivergenceError(f"smooth part non-finite at iteration {l}", _trail(records))
        grad_s = smooth_grad(s)

        phi_next, gamma, smooth_next, q_next = _backtrack(
            smooth_value, prox, s, smooth_s, grad_s, gamma, records
        )
        f_next = full_objective(phi_next)
        if not np.isfinite(f_next).all():
            raise DivergenceError(f"objective non-finite at iteration {l}", _trail(records))

        record = np.full((1, n_blocks, 4), np.nan)
        record[0, rows] = np.stack([f_next, gamma, smooth_next, q_next], axis=1)
        _append(records, record)
        improved = f_next < best_f
        best_f = _where(improved, f_next, best_f)
        best_phi = _where(improved, phi_next, best_phi)

        if cfg.momentum == "delayed":
            d_prev_prev, d_prev = d_prev, _d_next(d_prev)
        elif cfg.momentum == "standard":
            d_prev = _d_next(d_prev)

        phi_prev, phi_curr = phi_curr, phi_next
        stopped = np.abs(f_next - f_prev) / np.maximum(1.0, np.abs(f_prev)) < cfg.rel_tol
        f_prev = f_next
        if not np.count_nonzero(stopped):
            continue
        # The stopped blocks leave the batch.
        done = rows[stopped]
        result[done] = best_phi[stopped]
        converged[done] = True
        keep = ~stopped
        rows = rows[keep]
        if not rows.size:
            break
        rows.setflags(write=False)
        phi_prev, phi_curr, best_phi = phi_prev[keep], phi_curr[keep], best_phi[keep]
        gamma, best_f, f_prev = gamma[keep], best_f[keep], f_prev[keep]
        smooth_value, smooth_grad, prox, full_objective = _callbacks(problem, rows, scalar)

    if rows.size:  # the blocks still running stopped at the iteration cap
        result[rows] = best_phi
    records.setflags(write=False)
    iterations = np.count_nonzero(~np.isnan(records[..., 0]), axis=0).tolist()
    traces = [
        SolveTrace(*records[:n, b].T, iterations=n, converged=c)
        for b, (n, c) in enumerate(zip(iterations, converged.tolist()))
    ]
    return (result[0], traces[0]) if scalar else (result, BlockTraces(traces))
