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


def surrogate_q(problem: ProximalProblem, s: np.ndarray, phi: np.ndarray, gamma: float) -> float:
    """Quadratic surrogate of the smooth part around the search point s.

    Returns L(s) + (gamma/2)*||phi - s||_F^2 + <phi - s, grad L(s)>.
    """
    if s.shape != phi.shape:
        raise ValueError(f"shape mismatch: S is {s.shape}, Phi is {phi.shape}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    delta = phi - s
    value = problem.smooth_value(s)
    return float(
        value + 0.5 * gamma * np.vdot(delta, delta) + np.vdot(delta, problem.smooth_grad(s))
    )


def _backtrack(problem, s, smooth_s, grad_s, gamma_prev, cfg, objective_trail):
    """Double gamma from gamma_prev until the descent condition holds.

    Returns (candidate, gamma, smooth_at_candidate, surrogate_value).
    """
    gamma = gamma_prev
    for _ in range(cfg.max_backtracks + 1):
        candidate = problem.prox(s - grad_s / gamma, 1.0 / gamma)
        smooth_cand = float(problem.smooth_value(candidate))
        delta = candidate - s
        q = float(smooth_s + 0.5 * gamma * np.vdot(delta, delta) + np.vdot(delta, grad_s))
        if smooth_cand <= q + _DESCENT_SLACK * max(1.0, abs(smooth_s)):
            return candidate, gamma, smooth_cand, q
        gamma *= cfg.backtrack_factor
    raise LineSearchError(
        f"no acceptable step after {cfg.max_backtracks} backtracks "
        f"(gamma reached {gamma:.3g}); smooth gradient may be inconsistent",
        objective_trail,
    )


def backtracking_step(
    problem: ProximalProblem, s: np.ndarray, gamma_prev: float, cfg: SolverConfig
) -> tuple[np.ndarray, float]:
    """One backtracked proximal step from search point s.

    Finds the smallest gamma = backtrack_factor^j * gamma_prev such that
    L(next) <= Q_gamma(s, next) with next = prox(s - grad/gamma, 1/gamma),
    and returns (next, gamma).
    """
    if gamma_prev <= 0:
        raise ValueError(f"gamma_prev must be > 0, got {gamma_prev}")
    smooth_s = float(problem.smooth_value(s))
    grad_s = problem.smooth_grad(s)
    if grad_s.shape != s.shape:
        raise ValueError(f"gradient shape {grad_s.shape} does not match input {s.shape}")
    candidate, gamma, _, _ = _backtrack(problem, s, smooth_s, grad_s, gamma_prev, cfg, [])
    return candidate, gamma


def _d_next(d: float) -> float:
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * d * d))


def solve(
    problem: ProximalProblem, phi0: np.ndarray, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolveTrace]:
    """Run the accelerated proximal gradient loop from phi0.

    Stops when the relative objective change |F_l - F_{l-1}| /
    max(1, |F_{l-1}|) drops below cfg.rel_tol, or after cfg.max_iters
    iterations. FISTA is not monotone, so the best-objective iterate seen
    is returned rather than the last one.

    Raises
    ------
    LineSearchError
        If backtracking exceeds its doubling budget.
    DivergenceError
        If the objective is non-finite at the start point or any iterate.
    """
    if cfg is None:
        cfg = SolverConfig()
    phi_curr = np.array(phi0, dtype=np.float64)
    phi_prev = phi_curr

    f_prev = float(problem.full_objective(phi_curr))
    if not math.isfinite(f_prev):
        raise DivergenceError(f"objective is non-finite at the start point ({f_prev})")
    best_phi = phi_curr
    best_f = f_prev

    objectives: list[float] = []
    gammas: list[float] = []
    smooths: list[float] = []
    surrogates: list[float] = []

    gamma = cfg.gamma0
    d_prev_prev = 0.0  # d_{l-2}
    d_prev = 1.0  # d_{l-1}
    converged = False

    for l in range(1, cfg.max_iters + 1):
        if cfg.momentum == "none":
            alpha = 0.0
        elif cfg.momentum == "delayed":
            # (d_{l-2} - 1)/d_{l-1}; the first difference Phi^(1) - Phi^(0)
            # is zero, so alpha_1 is immaterial and recorded as 0.
            alpha = 0.0 if l == 1 else (d_prev_prev - 1.0) / d_prev
        else:  # standard
            alpha = (d_prev - 1.0) / _d_next(d_prev)

        if alpha != 0.0:
            s = phi_curr + alpha * (phi_curr - phi_prev)
            smooth_s = float(problem.smooth_value(s))
            if not math.isfinite(smooth_s):
                # Momentum overshot the smooth domain (possible for
                # constrained problems); retreat to the plain step.
                s = phi_curr
                smooth_s = float(problem.smooth_value(s))
        else:
            s = phi_curr
            smooth_s = float(problem.smooth_value(s))
        if not math.isfinite(smooth_s):
            raise DivergenceError(
                f"smooth part non-finite at iteration {l}", objectives
            )
        grad_s = problem.smooth_grad(s)

        phi_next, gamma, smooth_next, q_next = _backtrack(
            problem, s, smooth_s, grad_s, gamma, cfg, objectives
        )
        f_next = float(problem.full_objective(phi_next))
        if not math.isfinite(f_next):
            raise DivergenceError(f"objective non-finite at iteration {l}", objectives)

        objectives.append(f_next)
        gammas.append(gamma)
        smooths.append(smooth_next)
        surrogates.append(q_next)
        if f_next < best_f:
            best_f = f_next
            best_phi = phi_next

        if cfg.momentum == "delayed":
            d_prev_prev, d_prev = d_prev, _d_next(d_prev)
        elif cfg.momentum == "standard":
            d_prev = _d_next(d_prev)

        if cfg.restart_on_increase and f_next > f_prev:
            d_prev_prev, d_prev = 0.0, 1.0
            phi_prev = phi_next
        else:
            phi_prev = phi_curr
        phi_curr = phi_next

        if abs(f_next - f_prev) / max(1.0, abs(f_prev)) < cfg.rel_tol:
            converged = True
            break
        f_prev = f_next

    trace = SolveTrace(
        objective_per_iter=tuple(objectives),
        gamma_per_iter=tuple(gammas),
        smooth_per_iter=tuple(smooths),
        surrogate_per_iter=tuple(surrogates),
        iterations=len(objectives),
        converged=converged,
    )
    return best_phi, trace
