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
before any expansion.  Enumeration returns the candidates as arrays, one
row per selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, InactiveColumnError
from .model import Classification, Problem, classify_all
from .wpm import CLASSIFY_TOL, wpm_inverse

__all__ = [
    "DEFAULT_CHOICE_LIMIT",
    "MaxSolution",
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
    """Row maxima stacked as an m x n matrix, their componentwise min,
    ``fits``: the active entries whose level is at most ``overall`` in
    their column, within ``CLASSIFY_TOL``, and ``stranded``: the rows
    with no fitting entry.
    """

    per_row: np.ndarray
    overall: np.ndarray
    fits: np.ndarray
    stranded: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate lower corners as arrays, one row per selector.

    ``choices`` is ``(N, m)`` with one selector per row, ``points`` is
    ``(N, n)`` with that selector's lower corner, and ``feasible`` is
    ``(N,)``.  Selectors share a corner when their points are equal bit
    for bit, and then share their ``feasible`` flag: ``first`` is
    ``(K,)``, the first selector of each distinct corner, and ``corner``
    is ``(N,)``, each selector's index into ``first``.  The arrays are
    made read-only on construction, and ``len()`` counts the selectors.
    ``stranded`` lists the rows with no active column whose level fits
    under ``x_max``; when it is nonempty, no candidate is feasible.
    """

    choices: np.ndarray
    points: np.ndarray
    feasible: np.ndarray
    first: np.ndarray
    corner: np.ndarray
    stranded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for arr in (self.choices, self.points, self.feasible, self.first, self.corner):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.feasible)


def max_solution(classification: Classification) -> MaxSolution:
    """Row maxima, ``x_max``, the fit mask and the stranded rows, from the levels.

    Raises :class:`InfeasibleRowError` when some row admits no solution.
    """
    classification.require_feasible()
    per_row = np.where(classification.active, classification.levels, 1.0)
    overall = per_row.min(axis=0)
    fits = classification.active & (per_row <= overall + CLASSIFY_TOL)
    stranded = tuple(np.flatnonzero(~fits.any(axis=1)).tolist())
    return MaxSolution(per_row=per_row, overall=overall, fits=fits, stranded=stranded)


def minimal_solution_row(problem: Problem, i: int, j: int) -> np.ndarray:
    """Smallest point solving row ``i`` through column ``j`` alone.

    The inverse value at position ``j`` and 0 elsewhere.  ``j`` must be an
    active column of row ``i``.
    """
    active = np.flatnonzero(classify_all(problem).active[i])
    if j not in active:
        raise InactiveColumnError(
            f"column {j} is not active in row {i} (active: {active.tolist()})"
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
    ``x_max`` iff every level it picked does, i.e. iff it is at most
    ``x_max + CLASSIFY_TOL`` everywhere, so equal corners fit alike.  One
    sort of the corners' bytes finds ``first`` and ``corner``.
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
    keys = points.view(np.dtype((np.void, points.itemsize * n))).ravel()
    _, first, corner = np.unique(keys, return_index=True, return_inverse=True)
    return Candidates(choices, points, feasible, first, corner, stranded=ms.stranded)


def feasible_candidates(candidates: Candidates) -> Candidates:
    """Feasible candidates with duplicate points removed.

    Distinct selectors can generate bit-identical points; the first
    occurrence in lexicographic selector order is kept, so the result is
    deterministic.  That is the first selector of each feasible corner.
    """
    first, feasible = candidates.first, candidates.feasible
    keep = np.sort(first[feasible[first]])
    distinct = np.arange(len(keep))
    choices, points = candidates.choices[keep], candidates.points[keep]
    return Candidates(choices, points, feasible[keep], distinct, distinct, candidates.stranded)
