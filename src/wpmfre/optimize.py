"""Global optimum of a linear cost over the solution set.

A linear objective over a union of boxes that share the upper corner
``x_max`` splits by coefficient sign: negative-cost coordinates want to
sit at the shared top, nonnegative-cost coordinates at the box's own
bottom.  The negative part is therefore optimized by ``x_max`` alone,
and the nonnegative part by scanning the feasible candidate lower
corners for the one minimizing the positive-part cost.  Stitching the
two choices coordinate-by-coordinate stays inside the winning box, so
the assembled point is itself a solution; its membership is re-verified
at runtime instead of trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, InfeasibleProblemError, MembershipError
from .lattice import (
    DEFAULT_CHOICE_LIMIT,
    Candidates,
    enumerate_candidates,
    feasible_candidates,
    max_solution,
)
from .model import Classification, Problem, classify_all
from .oracle import check_membership
from .simplify import SimplificationLog, simplify_pipeline
from .wpm import FEASIBILITY_TOL

__all__ = [
    "SolveReport",
    "decide_feasibility",
    "solve_z2",
    "assemble_optimum",
    "solve",
    "STATUS_OPTIMAL",
    "STATUS_INFEASIBLE",
    "STATUS_BUDGET_EXCEEDED",
]

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve run produced, including diagnostics on failure.

    ``status`` is one of "optimal", "infeasible" or "budget_exceeded".
    ``x_star`` and friends are present only for "optimal"; ``feasible``
    may be True while the optimum is still unknown: on a budget breach
    (the feasibility test ran before enumeration blew the limit), and
    when ``x_max`` passes the membership check but no candidate corner
    fits under it.
    """

    status: str
    feasible: bool
    x_max: np.ndarray | None
    x_star: np.ndarray | None
    z_star: float | None
    e_star: tuple[int, ...] | None
    candidates_total: int | None
    candidates_feasible: int | None
    candidates: Candidates | None
    simplification: SimplificationLog | None
    diagnostic: dict | None
    timing_seconds: float


def decide_feasibility(problem: Problem) -> tuple[
    Classification, np.ndarray | None, np.ndarray | None, dict | None
]:
    """Classify, test every row, build ``x_max`` and check that it is a solution.

    Returns ``(classification, x_max, residuals, diagnostic)``.  The
    diagnostic is None when the system is feasible.  Otherwise its
    ``"reason"`` is ``"infeasible_row"``, with ``x_max`` and ``residuals``
    None, or ``"maximum_point_not_solution"``.
    """
    classification = classify_all(problem)
    if classification.infeasible:
        cls = classification[classification.infeasible[0]]
        return classification, None, None, {
            "reason": "infeasible_row",
            "row": cls.row,
            "blocking_columns": list(cls.blocking),
            "active_columns": list(cls.active),
        }
    x_max = max_solution(problem, classification).overall
    member, residuals = check_membership(problem, x_max, FEASIBILITY_TOL)
    diagnostic = None if member else {
        "reason": "maximum_point_not_solution",
        "residuals": residuals.tolist(),
        "worst_row": int(np.argmax(residuals)),
    }
    return classification, x_max, residuals, diagnostic


def solve_z2(
    candidates: Candidates, c_positive: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """Feasible candidate minimizing the positive-part cost.

    Ties go to the lexicographically smallest selector, which is the
    first one encountered because enumeration is lexicographic.  Each
    cost is its own ``c_positive @ point``, so equal corners cost
    bit-identical amounts and a tie never depends on summation order.
    """
    rows = np.flatnonzero(candidates.feasible)
    if rows.size == 0:
        raise InfeasibleProblemError("no feasible candidate lower corner")
    costs = [float(c_positive @ candidates.points[k]) for k in rows]
    best = rows[costs.index(min(costs))]
    return tuple(candidates.choices[best].tolist()), candidates.points[best]


def assemble_optimum(
    x_max: np.ndarray, x_min_star: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Stitch the optimum: top corner where cost is negative, bottom otherwise."""
    return np.where(np.asarray(c, dtype=float) < 0.0, x_max, x_min_star)


def _unsolved(
    status: str,
    feasible: bool,
    t0: float,
    diagnostic: dict,
    x_max: np.ndarray | None = None,
    simplification: SimplificationLog | None = None,
) -> SolveReport:
    """Report of a run that ends without an optimum."""
    return SolveReport(
        status=status,
        feasible=feasible,
        x_max=x_max,
        x_star=None,
        z_star=None,
        e_star=None,
        candidates_total=None,
        candidates_feasible=None,
        candidates=None,
        simplification=simplification,
        diagnostic=diagnostic,
        timing_seconds=time.perf_counter() - t0,
    )


def solve(
    problem: Problem,
    simplify: bool = True,
    limit: int = DEFAULT_CHOICE_LIMIT,
) -> SolveReport:
    """End-to-end pipeline: classify, test feasibility, simplify, optimize.

    Never raises for infeasible or over-budget instances; those outcomes
    are encoded in the report status and diagnostic.  That includes the
    case where ``x_max`` passes the membership check but no candidate
    corner fits under it: status "infeasible" with ``feasible`` True and
    reason ``"no_corner_under_x_max"``.  A
    membership check on the assembled optimum runs against the original,
    unsimplified problem and raises :class:`MembershipError` if it ever
    fails.
    """
    t0 = time.perf_counter()
    classification, x_max, _, diagnostic = decide_feasibility(problem)
    if diagnostic is not None:
        return _unsolved(STATUS_INFEASIBLE, False, t0, diagnostic, x_max=x_max)
    working = problem
    log: SimplificationLog | None = None
    if simplify:
        working, log, classification = simplify_pipeline(problem, classification)
    try:
        candidates = enumerate_candidates(working, classification, limit=limit)
    except EnumerationBudgetError as exc:
        return _unsolved(
            STATUS_BUDGET_EXCEEDED,
            True,
            t0,
            {
                "reason": "choice_space_exceeds_limit",
                "required": exc.required,
                "limit": exc.limit,
            },
            x_max=x_max,
            simplification=log,
        )
    distinct = feasible_candidates(candidates)
    if len(distinct) == 0:
        return _unsolved(
            STATUS_INFEASIBLE,
            True,
            t0,
            {
                "reason": "no_corner_under_x_max",
                "rows": list(candidates.stranded),
            },
            x_max=x_max,
            simplification=log,
        )
    e_star, x_min_star = solve_z2(distinct, np.maximum(problem.c, 0.0))
    x_star = assemble_optimum(x_max, x_min_star, problem.c)
    member, residuals = check_membership(problem, x_star, FEASIBILITY_TOL)
    if not member:
        raise MembershipError(
            f"assembled optimum fails membership, residuals {residuals.tolist()}"
        )
    x_star.setflags(write=False)
    return SolveReport(
        status=STATUS_OPTIMAL,
        feasible=True,
        x_max=x_max,
        x_star=x_star,
        z_star=float(problem.c @ x_star),
        e_star=e_star,
        candidates_total=len(candidates),
        candidates_feasible=len(distinct),
        candidates=candidates,
        simplification=log,
        diagnostic=None,
        timing_seconds=time.perf_counter() - t0,
    )
