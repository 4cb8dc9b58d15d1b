"""Brute-force verification engine, independent of the solver's algebra.

Everything here recomputes from first principles: solvability of a single
entry is decided by evaluating the operator at the endpoints ``x = 0`` and
``x = 1`` instead of comparing against closed-form thresholds, single-entry
equations are solved by bisection instead of the closed-form inverse, and
the feasible set is sampled on a full grid.  The only shared code is the
operator itself, which is the definition rather than an algorithm.  The
membership check evaluates every entry in one broadcast call of that
operator; bisection, the endpoint classification and the grid stay
deliberately slow.  This module is the ground truth for the differential
tests and must never call into the classification or lattice algorithms
it is checking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, OracleBudgetError
from .model import Problem
from .wpm import CLASSIFY_TOL, FEASIBILITY_TOL, wpm

__all__ = [
    "GridSpec",
    "OracleCandidate",
    "check_membership",
    "grid_feasible_set",
    "exhaustive_candidates",
    "oracle_feasible",
    "DEFAULT_ORACLE_LIMIT",
]

#: Ceiling on the selector-space size the exhaustive enumerator accepts.
DEFAULT_ORACLE_LIMIT = 10**6

_BISECT_STEPS = 100


class OracleCandidate(NamedTuple):
    """Lower corner of one selector, as the brute-force enumerator sees it."""

    choice: tuple[int, ...]
    point: np.ndarray
    feasible: bool


@dataclass(frozen=True)
class GridSpec:
    """Grid-search configuration.

    ``points_per_axis`` evenly spaced levels per coordinate, a residual
    tolerance for counting a grid point as solving the system, and a hard
    ceiling on the total number of grid points evaluated.
    """

    points_per_axis: int
    residual_tolerance: float = 1e-3
    max_evaluations: int = 10**7

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise DomainError(
                f"points_per_axis must be at least 2, got {self.points_per_axis}"
            )
        if not self.residual_tolerance > 0.0:
            raise DomainError(
                f"residual_tolerance must be positive, got {self.residual_tolerance}"
            )


def check_membership(
    problem: Problem, x: np.ndarray, tol: float = FEASIBILITY_TOL
) -> tuple[bool, np.ndarray]:
    """Does ``x`` solve every row within ``tol``?  Returns (verdict, residuals).

    The residual of row ``i`` is ``|max_j wpm(A[i,j], x[j]) - b[i]|``;
    every entry is evaluated in one broadcast call of the operator.
    """
    x_arr = np.asarray(x, dtype=float)
    if x_arr.shape != (problem.n,):
        raise DimensionError(
            f"point must have length {problem.n}, got shape {x_arr.shape}"
        )
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise DomainError(f"point must lie in the unit box, got {x_arr!r}")
    values = np.max(wpm(problem.A, x_arr[None, :], problem.params), axis=1)
    residuals = np.abs(values - problem.b)
    return bool(np.all(residuals <= tol)), residuals


def grid_feasible_set(problem: Problem, spec: GridSpec) -> np.ndarray:
    """All points of a uniform grid that solve the system within tolerance.

    Evaluates every one of ``points_per_axis**n`` grid points (vectorized
    one axis at a time) and returns those whose worst row residual is at
    most ``spec.residual_tolerance``, as an array of shape (count, n).
    """
    k, n = spec.points_per_axis, problem.n
    required = k**n
    if required > spec.max_evaluations:
        raise OracleBudgetError(
            required=required,
            limit=spec.max_evaluations,
            message=(
                f"grid search needs {required} points, "
                f"budget is {spec.max_evaluations}"
            ),
        )
    levels = np.linspace(0.0, 1.0, k)
    ok = np.ones((k,) * n, dtype=bool)
    for i in range(problem.m):
        row_value: np.ndarray | None = None
        for j in range(n):
            column = np.asarray(wpm(float(problem.A[i, j]), levels, problem.params))
            shape = [1] * n
            shape[j] = k
            column = column.reshape(shape)
            row_value = column if row_value is None else np.maximum(row_value, column)
        ok &= np.abs(row_value - float(problem.b[i])) <= spec.residual_tolerance
    hits = np.argwhere(ok)
    return levels[hits] if hits.size else np.empty((0, n))


def _bisect_level(a: float, target: float, problem: Problem) -> float:
    """Solve ``wpm(a, x) == target`` by bisection on [0, 1].

    Assumes the endpoint values bracket the target.  Monotonicity in the
    second argument makes plain bisection exact to the last bit after
    enough halvings.
    """
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if wpm(a, mid, problem.params) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _endpoint_classify(problem: Problem) -> list[dict[str, list[int]]]:
    """Classify columns by evaluating the operator at ``x = 0`` and ``x = 1``."""
    out = []
    for i in range(problem.m):
        target = float(problem.b[i])
        groups: dict[str, list[int]] = {"blocking": [], "inert": [], "active": []}
        for j in range(problem.n):
            a = float(problem.A[i, j])
            at_zero = wpm(a, 0.0, problem.params)
            at_one = wpm(a, 1.0, problem.params)
            if at_zero > target + CLASSIFY_TOL:
                groups["blocking"].append(j)
            elif at_one < target - CLASSIFY_TOL:
                groups["inert"].append(j)
            else:
                groups["active"].append(j)
        out.append(groups)
    return out


def exhaustive_candidates(
    problem: Problem, limit: int = DEFAULT_ORACLE_LIMIT
) -> list[OracleCandidate]:
    """Candidate lower corners by brute force, no dedup, no simplification.

    Semantics match the lattice enumerator but every ingredient is
    recomputed the slow way: endpoint tests for classification and
    bisection for the attainment levels.
    """
    groups = _endpoint_classify(problem)
    if any(g["blocking"] or not g["active"] for g in groups):
        return []
    required = math.prod(len(g["active"]) for g in groups)
    if required > limit:
        raise OracleBudgetError(required=required, limit=limit)
    levels = {
        (i, j): _bisect_level(float(problem.A[i, j]), float(problem.b[i]), problem)
        for i, g in enumerate(groups)
        for j in g["active"]
    }
    per_row = np.ones((problem.m, problem.n))
    for (i, j), v in levels.items():
        per_row[i, j] = v
    x_max = per_row.min(axis=0)
    out: list[OracleCandidate] = []
    for choice in itertools.product(*(g["active"] for g in groups)):
        point = np.zeros(problem.n)
        for i, j in enumerate(choice):
            point[j] = max(point[j], levels[(i, j)])
        feasible = bool(np.all(point <= x_max + CLASSIFY_TOL))
        point.setflags(write=False)
        out.append(OracleCandidate(choice=choice, point=point, feasible=feasible))
    return out


def oracle_feasible(problem: Problem) -> bool:
    """Feasibility verdict computed entirely on the oracle's own path."""
    groups = _endpoint_classify(problem)
    if any(g["blocking"] or not g["active"] for g in groups):
        return False
    x_max = np.ones(problem.n)
    for i, g in enumerate(groups):
        for j in g["active"]:
            level = _bisect_level(float(problem.A[i, j]), float(problem.b[i]), problem)
            x_max[j] = min(x_max[j], level)
    member, _ = check_membership(problem, x_max, FEASIBILITY_TOL)
    return member
