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
its own: its own gamma, momentum, best iterate and stopping test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, LineSearchError

_MOMENTUM_MODES = ("delayed", "standard", "none")

# Acceptance slack for the descent test, pure roundoff scale. Without it a
# candidate equal to S can fail L <= Q by one ulp and double gamma forever.
_DESCENT_SLACK = 1e-12


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
    one entry per row, shaped to broadcast against x.
    """

    smooth_value: Callable[[np.ndarray], float]
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]
    full_objective: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 1000
    rel_tol: float = 1e-6
    gamma0: float = 1.0
    backtrack_factor: float = 2.0
    max_backtracks: int = 100
    momentum: str = "delayed"
    restart_on_increase: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be finite and > 0, got {self.gamma0}")
        if not (math.isfinite(self.backtrack_factor) and self.backtrack_factor > 1):
            raise ValueError(
                f"backtrack_factor must be finite and > 1, got {self.backtrack_factor}"
            )
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks}")
        if self.momentum not in _MOMENTUM_MODES:
            raise ValueError(f"momentum must be one of {_MOMENTUM_MODES}, got {self.momentum!r}")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration diagnostics of one solve run.

    ``objective_per_iter[i]`` is the full objective at the iterate
    accepted in iteration i+1, ``gamma_per_iter[i]`` the accepted
    curvature. ``smooth_per_iter`` and ``surrogate_per_iter`` hold the two
    sides of the accepted descent test L(x_next) <= Q_gamma(S, x_next).
    """

    objective_per_iter: tuple[float, ...]
    gamma_per_iter: tuple[float, ...]
    smooth_per_iter: tuple[float, ...]
    surrogate_per_iter: tuple[float, ...]
    iterations: int
    converged: bool


class BlockTraces(tuple):
    """The :class:`SolveTrace` of each block of a blocked solve, in row order.

    ``iterations`` is their sum, what as many separate solves would take.
    """

    @property
    def iterations(self) -> int:
        return sum(trace.iterations for trace in self)


# Per-block quantities (values, gammas, masks) are numpy scalars for a
# one-block problem, where a scalar operation costs a fraction of one on a
# 0-d array, and arrays with one entry per row of x for a blocked problem.


def _per_block(v):
    """A callback's value(s): a numpy scalar for one block, else one per row."""
    return np.asarray(v, dtype=np.float64)[()]


def _rows(v, x):
    """Per-block ``v`` broadcast against x (an array, or a scalar that broadcasts as is)."""
    return v.reshape(v.shape + (1,) * (np.ndim(x) - 1)) if isinstance(v, np.ndarray) else v


def _where(mask, new, old):
    """``new`` in the blocks where ``mask`` holds, ``old`` in the others."""
    if isinstance(mask, np.ndarray):
        return np.where(_rows(mask, new), new, old)
    return new if mask else old


def _any(mask) -> bool:
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _inner(a: np.ndarray, b: np.ndarray, blocks: tuple):
    """<a, b> over each block."""
    if not blocks:
        return np.vdot(a, b)
    return np.einsum("ij,ij->i", a.reshape(blocks[0], -1), b.reshape(blocks[0], -1))


def _trail(records) -> list:
    """The objectives so far, for a solver error: per iteration, a float or a list over blocks."""
    return [np.asarray(f).tolist() for f, *_ in records]


def _backtrack(problem, s, smooth_s, grad_s, gamma, pending, cfg, records):
    """Double each pending block's gamma until its descent condition holds.

    Returns (candidate, gamma, smooth_at_candidate, surrogate_value). A
    block not pending keeps s, its gamma and L(s) in all four.
    """
    blocks = np.shape(gamma)
    candidate, smooth_cand, q = s, smooth_s, smooth_s
    slack = _DESCENT_SLACK * np.maximum(1.0, np.abs(smooth_s))
    for _ in range(cfg.max_backtracks + 1):
        trial = problem.prox(s - grad_s / _rows(gamma, s), 1.0 / _rows(gamma, s))
        smooth_trial = _per_block(problem.smooth_value(trial))
        delta = trial - s
        q_trial = (
            smooth_s + 0.5 * gamma * _inner(delta, delta, blocks) + _inner(delta, grad_s, blocks)
        )
        accept = pending & (smooth_trial <= q_trial + slack)
        candidate = _where(accept, trial, candidate)
        smooth_cand = _where(accept, smooth_trial, smooth_cand)
        q = _where(accept, q_trial, q)
        pending = pending & ~accept
        if not _any(pending):
            return candidate, gamma, smooth_cand, q
        gamma = _where(pending, gamma * cfg.backtrack_factor, gamma)
    raise LineSearchError(
        f"no acceptable step after {cfg.max_backtracks} backtracks "
        f"(gamma reached {np.max(_where(pending, gamma, 0.0)):.3g}); "
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

    When ``full_objective`` returns a scalar the problem is one block and
    the trace a :class:`SolveTrace`. When it returns one value per row of
    x, each row is an independent block with its own gamma, momentum,
    best iterate and stopping test; a block that stops is frozen while
    the others go on, so every row follows the iterates of its own solve.
    The trace is then a :class:`BlockTraces` with one trace per row.

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
    phi_prev = phi_curr

    f_prev = _per_block(problem.full_objective(phi_curr))
    blocks = np.shape(f_prev)
    if blocks not in ((), phi_curr.shape[:1]):
        raise ValueError(
            f"objective of shape {blocks} is neither a scalar nor one value per row of "
            f"x of shape {phi_curr.shape}"
        )
    if not np.isfinite(f_prev).all():
        raise DivergenceError(f"objective is non-finite at the start point ({f_prev})")
    best_phi = phi_curr
    best_f = f_prev

    # Per iteration: objective, gamma, smooth value and surrogate of each block.
    records: list[tuple[np.ndarray, ...]] = []

    gamma = _per_block(np.full(blocks, cfg.gamma0))
    d_prev_prev = _per_block(np.zeros(blocks))  # d_{l-2}
    d_prev = _per_block(np.ones(blocks))  # d_{l-1}
    no_momentum = _per_block(np.zeros(blocks))
    active = np.ones(blocks, dtype=bool)[()]
    iterations = np.zeros(blocks, dtype=int)

    for l in range(1, cfg.max_iters + 1):
        if cfg.momentum == "none":
            alpha = no_momentum
        elif cfg.momentum == "delayed":
            # (d_{l-2} - 1)/d_{l-1}; the first difference Phi^(1) - Phi^(0)
            # is zero, so alpha_1 is immaterial and recorded as 0.
            alpha = no_momentum if l == 1 else (d_prev_prev - 1.0) / d_prev
        else:  # standard
            alpha = (d_prev - 1.0) / _d_next(d_prev)
        # A stopped block stays at its iterate.
        moving = active & (alpha != 0.0)

        if _any(moving):
            extrapolated = phi_curr + _rows(alpha, phi_curr) * (phi_curr - phi_prev)
            s = _where(moving, extrapolated, phi_curr)
        else:
            s = phi_curr
        smooth_s = _per_block(problem.smooth_value(s))
        retreat = moving & ~np.isfinite(smooth_s)
        if _any(retreat):
            # Momentum overshot the smooth domain (possible for
            # constrained problems); retreat to the plain step.
            s = _where(retreat, phi_curr, s)
            smooth_s = _where(retreat, _per_block(problem.smooth_value(s)), smooth_s)
        if _any(active & ~np.isfinite(smooth_s)):
            raise DivergenceError(f"smooth part non-finite at iteration {l}", _trail(records))
        grad_s = problem.smooth_grad(s)

        phi_next, gamma, smooth_next, q_next = _backtrack(
            problem, s, smooth_s, grad_s, gamma, active, cfg, records
        )
        f_next = _per_block(problem.full_objective(phi_next))
        if _any(active & ~np.isfinite(f_next)):
            raise DivergenceError(f"objective non-finite at iteration {l}", _trail(records))

        records.append((f_next, gamma, smooth_next, q_next))
        improved = active & (f_next < best_f)
        best_f = _where(improved, f_next, best_f)
        best_phi = _where(improved, phi_next, best_phi)

        if cfg.momentum == "delayed":
            d_prev_prev, d_prev = d_prev, _d_next(d_prev)
        elif cfg.momentum == "standard":
            d_prev = _d_next(d_prev)

        if cfg.restart_on_increase:
            restart = active & (f_next > f_prev)
            d_prev_prev = _where(restart, 0.0, d_prev_prev)
            d_prev = _where(restart, 1.0, d_prev)
            phi_prev = _where(restart, phi_next, phi_curr)
        else:
            phi_prev = phi_curr
        # A stopped block's candidate is its iterate, so it does not move.
        phi_curr = phi_next

        iterations += active
        stopped = np.abs(f_next - f_prev) / np.maximum(1.0, np.abs(f_prev)) < cfg.rel_tol
        active = active & ~stopped
        if not _any(active):
            break
        f_prev = f_next

    history = np.array(records).reshape(len(records), 4, -1)
    traces = [
        SolveTrace(
            objective_per_iter=tuple(history[:n, 0, b].tolist()),
            gamma_per_iter=tuple(history[:n, 1, b].tolist()),
            smooth_per_iter=tuple(history[:n, 2, b].tolist()),
            surrogate_per_iter=tuple(history[:n, 3, b].tolist()),
            iterations=int(n),
            converged=not running,
        )
        for b, (n, running) in enumerate(zip(iterations.ravel(), np.ravel(active)))
    ]
    return best_phi, (BlockTraces(traces) if blocks else traces[0])
