"""Problem container and per-row column classification.

A problem instance is a system of ``m`` row equalities over ``x`` in the
unit box: for each row ``i``,

    max_j wpm(A[i, j], x[j]) == b[i]

plus a linear objective ``c @ x`` to minimize.  Feasibility of a single
row is decided by sorting its columns into three disjoint groups:

  * blocking  - the coefficient is so large that the composed value
                exceeds ``b[i]`` for every ``x[j]``; one such column kills
                the row (the max can never come back down),
  * inert     - the coefficient is so small that the column can never
                reach ``b[i]``; it contributes nothing to the row,
  * active    - the remainder; exactly these columns can attain ``b[i]``.

A row is feasible iff it has no blocking column and at least one active
column.  The three groups partition the column set by construction.

Strict threshold comparisons use the ``CLASSIFY_TOL`` band from the
operator kernel so a coefficient exactly on a boundary classifies as
active, matching the closed (non-strict) solvability conditions of the
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .wpm import CLASSIFY_TOL, WpmParams

__all__ = [
    "Problem",
    "RowClassification",
    "classify_row",
    "classify_all",
    "row_feasible",
    "problem_feasible",
]


@dataclass(frozen=True)
class Problem:
    """Immutable problem instance: coefficients, targets, costs, parameters.

    ``A`` is an m x n matrix with entries in [0, 1], ``b`` an m-vector in
    [0, 1], ``c`` an n-vector of finite costs of arbitrary sign.  Arrays
    are copied and frozen at construction.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    params: WpmParams

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=float, copy=True)
        b = np.array(self.b, dtype=float, copy=True)
        c = np.array(self.c, dtype=float, copy=True)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionError(
                f"A must be a 2-D matrix with at least one row and column, "
                f"got shape {A.shape}"
            )
        m, n = A.shape
        if b.shape != (m,):
            raise DimensionError(f"b must have length {m} (rows of A), got {b.shape}")
        if c.shape != (n,):
            raise DimensionError(f"c must have length {n} (columns of A), got {c.shape}")
        bad = np.argwhere(~((A >= 0.0) & (A <= 1.0)))
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"A[{i},{j}] = {A[i, j]} lies outside [0, 1]")
        bad_b = np.flatnonzero(~((b >= 0.0) & (b <= 1.0)))
        if bad_b.size:
            i = bad_b[0]
            raise DomainError(f"b[{i}] = {b[i]} lies outside [0, 1]")
        bad_c = np.flatnonzero(~np.isfinite(c))
        if bad_c.size:
            j = bad_c[0]
            raise DomainError(f"c[{j}] = {c[j]} is not finite")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not isinstance(self.params, WpmParams):
            object.__setattr__(self, "params", WpmParams(*self.params))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def with_matrix(self, A: np.ndarray) -> "Problem":
        """Copy of this problem with a replacement coefficient matrix."""
        return Problem(A, self.b, self.c, self.params)


@dataclass(frozen=True)
class RowClassification:
    """Disjoint column groups of one row; together they cover all columns."""

    row: int
    blocking: tuple[int, ...]
    inert: tuple[int, ...]
    active: tuple[int, ...]


def classify_row(problem: Problem, i: int) -> RowClassification:
    """Sort the columns of row ``i`` into blocking, inert and active groups.

    A column ``j`` blocks when ``A[i, j] > b[i] / w**(1/p)`` (the composed
    value exceeds the target even at ``x[j] = 0``).  It is inert when the
    target is unreachable even at ``x[j] = 1``, which can only happen when
    ``b[i]**p >= 1 - w``; the unreachability threshold is evaluated only
    under that guard.  Everything else is active.
    """
    a = problem.A[i]
    target = float(problem.b[i])
    w, p = problem.params.w, problem.params.p
    blocking_mask = a > target / problem.params.blocking_scale + CLASSIFY_TOL
    inert_mask = np.zeros_like(blocking_mask)
    t_pow = target**p
    if t_pow >= 1.0 - w:
        reach = ((t_pow + w - 1.0) / w) ** (1.0 / p)
        inert_mask = ~blocking_mask & (a < reach - CLASSIFY_TOL)
    active_mask = ~blocking_mask & ~inert_mask
    return RowClassification(
        row=i,
        blocking=tuple(int(j) for j in np.flatnonzero(blocking_mask)),
        inert=tuple(int(j) for j in np.flatnonzero(inert_mask)),
        active=tuple(int(j) for j in np.flatnonzero(active_mask)),
    )


def classify_all(problem: Problem) -> tuple[RowClassification, ...]:
    return tuple(classify_row(problem, i) for i in range(problem.m))


def row_feasible(cls: RowClassification) -> bool:
    """A row admits a solution iff nothing blocks and something is active."""
    return not cls.blocking and bool(cls.active)


def problem_feasible(problem: Problem) -> bool:
    """Whole-system feasibility test.

    False if any single row is infeasible.  Otherwise the system is
    feasible iff its componentwise-largest candidate point (the global
    maximum solution) actually solves every row within ``FEASIBILITY_TOL``.
    """
    from .optimize import decide_feasibility

    return decide_feasibility(problem)[-1] is None
