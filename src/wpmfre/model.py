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

The groups are the masks of one array pass over the matrix,
``entry_pass`` of the operator kernel, whose ``CLASSIFY_TOL`` band makes
a coefficient exactly on a boundary active, matching the closed
(non-strict) solvability conditions of the inverse.  The same pass
yields every entry's attainment level.  A :class:`Classification` keeps
the masks and the levels; its rows are views.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, InfeasibleRowError
from .wpm import WpmParams, entry_pass

__all__ = [
    "Problem",
    "RowClassification",
    "Classification",
    "classify_all",
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


@dataclass(frozen=True, eq=False)
class Classification:
    """Every entry of a problem as blocking, inert or active.

    ``blocking``, ``inert`` and ``active`` are read-only ``(m, n)`` masks
    that partition the entries, ``levels`` holds every entry's inverse
    (valid where active), and ``infeasible`` lists the rows with a
    blocking column or no active column.  ``len()``, indexing and
    iteration see the rows as :class:`RowClassification`.  In the
    classification that ``simplify_pipeline`` returns, "inert" also
    covers rule two's entries: active ones that no solution attains.
    """

    blocking: np.ndarray
    inert: np.ndarray
    active: np.ndarray
    levels: np.ndarray
    infeasible: tuple[int, ...]

    def __post_init__(self) -> None:
        for arr in (self.blocking, self.inert, self.active, self.levels):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.active)

    def __getitem__(self, i: int) -> RowClassification:
        i = range(len(self))[i]
        masks = (self.blocking, self.inert, self.active)
        return RowClassification(i, *(tuple(np.flatnonzero(mask[i]).tolist()) for mask in masks))

    def __iter__(self) -> Iterator[RowClassification]:
        return map(self.__getitem__, range(len(self)))

    def require_feasible(self) -> None:
        """Raise :class:`InfeasibleRowError` naming the first infeasible row."""
        if self.infeasible:
            cls = self[self.infeasible[0]]
            raise InfeasibleRowError(
                cls.row,
                f"row {cls.row} is infeasible: "
                f"blocking columns {list(cls.blocking)}, "
                f"{len(cls.active)} active columns",
            )


def classify_all(problem: Problem) -> Classification:
    """Classify every entry and compute its level in one pass over the matrix."""
    blocking, inert, levels = entry_pass(problem.A, problem.b, problem.params)
    active = ~blocking & ~inert
    infeasible = np.flatnonzero(blocking.any(axis=1) | ~active.any(axis=1))
    return Classification(blocking, inert, active, levels, tuple(infeasible.tolist()))
