"""Equivalence simplifications that shrink the selector space.

Two rewrites zero out matrix entries without changing the solution set:

  * First rule: every inert entry is set to 0.  An inert column cannot
    reach its row's target at any ``x``, so its coefficient is noise.
  * Second rule: an active entry ``A[k, j]`` that does not fit is set to
    0, i.e. its level exceeds ``x_max[j]`` by more than ``CLASSIFY_TOL``:
    some other row pins column ``j`` below the value row ``k`` would
    need, so no solution ever satisfies row ``k`` through ``j``.  This
    is the fit test of ``enumerate_candidates``, read from the same
    mask.  A row with no fitting entry has no corner at all; it is left
    as it is, for enumeration to report as stranded.

Both rules read the input's classification, and their zeros are applied
in one batch: rule one's in row-major order, then rule two's.  The
classification returned is the input's with rule two's entries moved
from active to inert, which multiplies down the selector-space size; a
zero coefficient can be active again where ``b[i]**p <= 1 - w``, but it
never fits.  Fitting entries keep their levels and ``x_max`` does not
move, so a second pass would zero nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .lattice import choice_space_size, max_solution
from .model import Classification, Problem

__all__ = [
    "SimplificationEntry",
    "SimplificationLog",
    "simplify_pipeline",
]


class SimplificationEntry(NamedTuple):
    """One zeroed cell: which rule fired, where, and the value it erased."""

    rule: str  # "first" or "second"
    row: int
    col: int
    old_value: float


@dataclass(frozen=True)
class SimplificationLog:
    """Ordered audit of zeroed cells plus selector-space sizes around them."""

    entries: tuple[SimplificationEntry, ...]
    choices_before: int
    choices_after: int


def simplify_pipeline(
    problem: Problem, classification: Classification
) -> tuple[Problem, SimplificationLog, Classification]:
    """Apply the first and the second rule in one batch.

    ``classification`` is ``classify_all(problem)``; every row must be
    feasible, or :class:`InfeasibleRowError` is raised.  Returns the
    simplified problem, the log with the selector-space size before and
    after, and ``classification`` with rule two's entries made inert.
    """
    fits = max_solution(classification).fits
    doomed = classification.active & ~fits & fits.any(axis=1)[:, None]
    A = problem.A.copy()
    entries: list[SimplificationEntry] = []
    for rule, cells in (("first", classification.inert), ("second", doomed)):
        rows, cols = np.nonzero(cells & (A != 0.0))
        values = A[rows, cols].tolist()
        entries += map(SimplificationEntry, repeat(rule), rows.tolist(), cols.tolist(), values)
        A[rows, cols] = 0.0
    after = replace(
        classification, inert=classification.inert | doomed, active=classification.active & ~doomed
    )
    before = choice_space_size(classification)
    log = SimplificationLog(tuple(entries), before, choice_space_size(after))
    return problem.with_matrix(A), log, after
