"""Equivalence simplifications that shrink the selector space.

Two rewrites zero out matrix entries without changing the solution set:

  * First rule: every inert entry is set to 0.  An inert column cannot
    reach its row's target at any ``x``, so its coefficient is noise.
  * Second rule: an entry ``A[k, j0]`` active in row ``k`` is set to 0
    when some other row ``i`` also has ``j0`` active with
    ``b[i]**p - b[k]**p < w * (A[i, j0]**p - A[k, j0]**p)``, i.e. row
    ``i`` pins column ``j0`` strictly below the value row ``k`` would
    need, so no solution ever satisfies row ``k`` through ``j0``.

Zeroing an active entry removes it from the row's active set and thus
multiplies down the selector-space size.  Rule-two eligibility is decided
for all pairs against the pre-rule matrix, by an array pass per column
over its active rows, and the zeros are applied in one batch in row-major
order; the strict inequality is tested with a ``CLASSIFY_TOL`` margin so
knife-edge pairs are left alone.  The pipeline applies rule one then rule
two, once each; an optional flag repeats the pair until a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRowError
from .lattice import choice_space_size
from .model import Problem, RowClassification, classify_all, column_mask, row_feasible
from .wpm import CLASSIFY_TOL

__all__ = [
    "SimplificationEntry",
    "SimplificationLog",
    "simplify_first",
    "simplify_second",
    "simplify_pipeline",
]


@dataclass(frozen=True)
class SimplificationEntry:
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


def _dominated_cells(
    problem: Problem, classifications: tuple[RowClassification, ...]
) -> np.ndarray:
    """Mask of the active cells ``(k, j)`` that rule two zeroes."""
    w, p = problem.params.w, problem.params.p
    b_pow = problem.b**p
    a_pow = np.float_power(problem.A, p)
    active = column_mask([cls.active for cls in classifications], problem.n)
    doomed = np.zeros_like(active)
    for j in np.flatnonzero(np.count_nonzero(active, axis=0) > 1).tolist():
        rows = np.flatnonzero(active[:, j])
        bp, ap = b_pow[rows], a_pow[rows, j]
        # [k, i]: row i pins column j below what row k needs; False when i == k
        pinned = bp - bp[:, None] < w * (ap - ap[:, None]) - CLASSIFY_TOL
        doomed[rows, j] = pinned.any(axis=1)
    return doomed


def _apply(
    rule: str, problem: Problem, classifications: tuple[RowClassification, ...]
) -> tuple[Problem, SimplificationLog, tuple[RowClassification, ...]]:
    """Zero the inert ("first") or dominated ("second") cells; classify the result."""
    for cls in classifications:
        if not row_feasible(cls):
            raise InfeasibleRowError(cls.row)
    if rule == "first":
        cells = column_mask([cls.inert for cls in classifications], problem.n)
    else:
        cells = _dominated_cells(problem, classifications)
    A = problem.A.copy()
    rows, cols = np.nonzero(cells & (A != 0.0))
    values = zip(rows.tolist(), cols.tolist(), A[rows, cols].tolist())
    A[rows, cols] = 0.0
    simplified = problem.with_matrix(A)
    after = classify_all(simplified)
    log = SimplificationLog(
        entries=tuple(SimplificationEntry(rule, i, j, v) for i, j, v in values),
        choices_before=choice_space_size(classifications),
        choices_after=choice_space_size(after),
    )
    return simplified, log, after


def simplify_first(
    problem: Problem, classifications: tuple[RowClassification, ...]
) -> tuple[Problem, SimplificationLog]:
    """Zero every inert entry.  Logs only cells that actually change."""
    return _apply("first", problem, classifications)[:2]


def simplify_second(
    problem: Problem, classifications: tuple[RowClassification, ...]
) -> tuple[Problem, SimplificationLog]:
    """Zero dominated active entries, batch-evaluated on the given matrix."""
    return _apply("second", problem, classifications)[:2]


def simplify_pipeline(
    problem: Problem,
    classifications: tuple[RowClassification, ...],
    fixpoint: bool = False,
) -> tuple[Problem, SimplificationLog, tuple[RowClassification, ...]]:
    """Apply the first then the second rule, once each by default.

    ``classifications`` is ``classify_all(problem)``.  With
    ``fixpoint=True`` the pair is repeated until a full pass changes
    nothing.  Returns the simplified problem, the merged log, which
    reports the selector-space size before any rewriting and after the
    last one, and the classification of the simplified problem.
    """
    before = choice_space_size(classifications)
    entries: list[SimplificationEntry] = []
    current = problem
    while True:
        current, log1, classifications = _apply("first", current, classifications)
        entries.extend(log1.entries)
        current, log2, classifications = _apply("second", current, classifications)
        entries.extend(log2.entries)
        if not fixpoint or (not log1.entries and not log2.entries):
            break
    log = SimplificationLog(tuple(entries), before, log2.choices_after)
    return current, log, classifications
