"""Exception types shared across the package."""

from __future__ import annotations


class TaskregError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaError(TaskregError):
    """A required column is missing or the header is malformed."""


class ParseError(TaskregError):
    """A cell could not be read as a finite number."""


class DegenerateTaskError(TaskregError):
    """A task has too few rows for the requested operation."""


class SolverError(TaskregError):
    """Base class for optimizer failures. Carries the partial objective trace.

    ``objective_trail`` holds one float per finished iteration. For a
    blocked solve it is the sum over the blocks, in which a block that
    stopped keeps its objective at its stop.
    """

    def __init__(self, message: str, objective_trail: list[float] | None = None):
        super().__init__(message)
        self.objective_trail = list(objective_trail) if objective_trail else []


class LineSearchError(SolverError):
    """Backtracking exhausted its step-doubling budget without descent."""


class DivergenceError(SolverError):
    """The objective became non-finite during optimization."""
