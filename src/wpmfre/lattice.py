"""Solution-set structure: maximum solution, minimal candidates, cells.

The solution set of a feasible system is a finite union of boxes (cells)
that share one global upper corner:

  * Each feasible row ``i`` has a row-maximum solution: the inverse value
    at every active column (the classification's ``levels``), 1 at every
    inert column.  The componentwise minimum of the row maxima
    is the global maximum solution ``x_max``; the system is feasible iff
    ``x_max`` solves it.
  * Each active column ``j`` of row ``i`` yields a row-minimal point:
    the inverse value at position ``j`` and 0 elsewhere.
  * A selector assigns one active column to every row.  Its candidate
    lower corner is the componentwise max of the chosen row-minimal
    points.  The candidate is feasible iff it sits below ``x_max``, in
    which case the whole box up to ``x_max`` consists of solutions, and
    the union of these boxes over all selectors is exactly the solution
    set.

The selector space has ``prod_i |active(i)|`` elements, exponential in the
number of rows, so enumeration is guarded by an explicit budget checked
before any expansion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, InactiveColumnError
from .model import Classification, Problem, classify_all
from .wpm import CLASSIFY_TOL, wpm_inverse

__all__ = [
    "DEFAULT_CHOICE_LIMIT",
    "MaxSolution",
    "CandidateMinimal",
    "Candidates",
    "max_solution",
    "minimal_solution_row",
    "choice_space_size",
    "enumerate_candidates",
    "feasible_candidates",
]

#: Default ceiling on the number of selector vectors enumerated.
DEFAULT_CHOICE_LIMIT = 10**6


@dataclass(frozen=True)
class MaxSolution:
    """Row maxima stacked as an m x n matrix, their componentwise min, and
    ``fits``: the active entries whose level is at most ``overall`` in
    their column, within ``CLASSIFY_TOL``.
    """

    per_row: np.ndarray
    overall: np.ndarray
    fits: np.ndarray


@dataclass(frozen=True)
class CandidateMinimal:
    """Lower corner generated by one selector vector.

    ``choice[i]`` is the active column selected for row ``i``; ``point``
    is the componentwise max of the selected row-minimal points; and
    ``feasible`` records whether ``point`` fits under the global maximum
    solution (within ``CLASSIFY_TOL``), i.e. whether its cell is nonempty.
    """

    choice: tuple[int, ...]
    point: np.ndarray
    feasible: bool


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate lower corners as arrays, one row per selector.

    ``choices`` is ``(N, m)`` with one selector per row, ``points`` is
    ``(N, n)`` with that selector's lower corner, and ``feasible`` is
    ``(N,)``.  The arrays are made read-only on construction.  ``len()``,
    indexing and iteration see the rows as :class:`CandidateMinimal`
    whose ``point`` is a read-only view.  ``stranded`` lists the rows
    with no active column whose level fits under ``x_max``; when it is
    nonempty, no candidate is feasible.
    """

    choices: np.ndarray
    points: np.ndarray
    feasible: np.ndarray
    stranded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for arr in (self.choices, self.points, self.feasible):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.feasible)

    def __getitem__(self, k: int) -> CandidateMinimal:
        return CandidateMinimal(
            choice=tuple(self.choices[k].tolist()),
            point=self.points[k],
            feasible=bool(self.feasible[k]),
        )

    def __iter__(self) -> Iterator[CandidateMinimal]:
        return map(self.__getitem__, range(len(self)))


def max_solution(classification: Classification) -> MaxSolution:
    """Row maxima, ``x_max`` and the fit mask, from the classification's levels.

    Raises :class:`InfeasibleRowError` when some row admits no solution.
    """
    classification.require_feasible()
    per_row = np.where(classification.active, classification.levels, 1.0)
    overall = per_row.min(axis=0)
    fits = classification.active & (per_row <= overall + CLASSIFY_TOL)
    return MaxSolution(per_row=per_row, overall=overall, fits=fits)


def minimal_solution_row(problem: Problem, i: int, j: int) -> np.ndarray:
    """Smallest point solving row ``i`` through column ``j`` alone.

    The inverse value at position ``j`` and 0 elsewhere.  ``j`` must be an
    active column of row ``i``.
    """
    cls = classify_all(problem)[i]
    if j not in cls.active:
        raise InactiveColumnError(
            f"column {j} is not active in row {i} (active: {list(cls.active)})"
        )
    x = np.zeros(problem.n)
    x[j] = wpm_inverse(float(problem.A[i, j]), float(problem.b[i]), problem.params)
    return x


def choice_space_size(classification: Classification) -> int:
    """Number of selector vectors: product of active-column counts."""
    return math.prod(np.count_nonzero(classification.active, axis=1).tolist())


def enumerate_candidates(
    classification: Classification, limit: int = DEFAULT_CHOICE_LIMIT
) -> Candidates:
    """One candidate per selector vector, in lexicographic order.

    The selector space size is checked against ``limit`` before any
    expansion; a breach raises :class:`EnumerationBudgetError` carrying
    the exact required count.  Every row must be feasible.  The flat
    selector grid is built with one pass per row: row ``i`` picks its
    active column ``(k // stride_i) % |active(i)|`` for selector ``k``,
    where ``stride_i`` is the product of the later rows' counts, and
    maxes that column's level into the corner.  Every array keeps two
    axes however many rows there are.  A corner fits under
    ``x_max`` iff every level it picked does; rows where no level fits
    are recorded in ``stranded``.
    """
    classification.require_feasible()
    required = choice_space_size(classification)
    if required > limit:
        raise EnumerationBudgetError(required=required, limit=limit)
    ms = max_solution(classification)
    m, n = ms.per_row.shape
    choices = np.empty((required, m), dtype=np.intp)
    points = np.zeros((required, n))
    feasible = np.ones(required, dtype=bool)
    stranded = []
    stride = required
    for i, row in enumerate(classification.active):
        cols = np.flatnonzero(row).tolist()
        stride //= len(cols)
        # selector k picks cols[(k // stride) % len(cols)]: split its axis
        # into (blocks, position in cols, stride)
        grid = (required // (len(cols) * stride), len(cols), stride)
        level = ms.per_row[i, cols]
        fits = ms.fits[i, cols]
        choices[:, i].reshape(grid)[...] = np.reshape(cols, (1, -1, 1))
        feasible.reshape(grid)[...] &= fits.reshape(1, -1, 1)
        corners = points.reshape(grid + (n,))
        for k, j in enumerate(cols):
            np.maximum(corners[:, k, :, j], level[k], out=corners[:, k, :, j])
        if not fits.any():
            stranded.append(i)
    return Candidates(
        choices=choices, points=points, feasible=feasible, stranded=tuple(stranded)
    )


def row_keys(points: np.ndarray) -> np.ndarray:
    """One opaque key per row of ``points``; keys are equal iff the bytes are."""
    points = np.ascontiguousarray(points)
    return points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()


def feasible_candidates(candidates: Candidates) -> Candidates:
    """Feasible candidates with duplicate points removed.

    Distinct selectors can generate bit-identical points; the first
    occurrence in lexicographic selector order is kept, so the result is
    deterministic.
    """
    rows = np.flatnonzero(candidates.feasible)
    _, first = np.unique(row_keys(candidates.points[rows]), return_index=True)
    keep = rows[np.sort(first)]
    return Candidates(
        choices=candidates.choices[keep],
        points=candidates.points[keep],
        feasible=candidates.feasible[keep],
        stranded=candidates.stranded,
    )
