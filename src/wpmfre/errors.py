"""Exception hierarchy for the solver.

Every error raised by this package derives from :class:`WpmFreError`, so
callers can catch the whole family with one clause.  Input-shaped problems
(bad parameters, out-of-range data, malformed files) additionally derive
from :class:`ValueError`.
"""

from __future__ import annotations


class WpmFreError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(WpmFreError, ValueError):
    """Operator parameters outside their admissible domain."""


class DomainError(WpmFreError, ValueError):
    """A numeric value lies outside its domain: the unit interval, the
    finite numbers, or the nonnegative seeds and tolerances."""


class DimensionError(WpmFreError, ValueError):
    """Array shapes are inconsistent or degenerate."""


class NoSolutionError(WpmFreError, ArithmeticError):
    """The single-entry equation has no solution at the requested target."""


class InfeasibleRowError(WpmFreError):
    """A row constraint admits no solution on its own."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} is infeasible")


class InactiveColumnError(WpmFreError, ValueError):
    """A column was used where an active column is required."""


class InfeasibleProblemError(WpmFreError):
    """The full system admits no solution."""


class MembershipError(WpmFreError):
    """A point that must solve the system fails the residual check."""


class BudgetError(WpmFreError):
    """A combinatorial or grid computation exceeds its configured budget.

    Carries the size the computation would need (``required``) and the
    configured ceiling (``limit``).
    """

    def __init__(self, required: int, limit: int, message: str | None = None):
        self.required = required
        self.limit = limit
        super().__init__(
            message
            or f"computation requires {required} evaluations, limit is {limit}"
        )


class EnumerationBudgetError(BudgetError):
    """The choice space is larger than the enumeration limit."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            required,
            limit,
            f"choice space holds {required} selector vectors, "
            f"enumeration limit is {limit}",
        )


class OracleBudgetError(BudgetError):
    """A brute-force verification exceeds the oracle budget."""


class ProblemFormatError(WpmFreError, ValueError):
    """A problem or point file cannot be parsed."""
