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
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .lattice import choice_space_size
from .model import Classification, Problem, classify_all
from .wpm import CLASSIFY_TOL

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


def _dominated_cells(problem: Problem, classification: Classification) -> np.ndarray:
    """Mask of the active cells ``(k, j)`` that rule two zeroes."""
    w, p = problem.params.w, problem.params.p
    b_pow = problem.b**p
    a_pow = np.float_power(problem.A, p)
    active = classification.active
    doomed = np.zeros_like(active)
    for j in np.flatnonzero(np.count_nonzero(active, axis=0) > 1).tolist():
        rows = np.flatnonzero(active[:, j])
        bp, ap = b_pow[rows], a_pow[rows, j]
        # [k, i]: row i pins column j below what row k needs; False when i == k
        pinned = bp - bp[:, None] < w * (ap - ap[:, None]) - CLASSIFY_TOL
        doomed[rows, j] = pinned.any(axis=1)
    return doomed


def _zero(
    problem: Problem, rule: str, cells: np.ndarray, entries: list[SimplificationEntry]
) -> Problem:
    """Zero the nonzero ``cells`` and log each in row-major order."""
    A = problem.A.copy()
    rows, cols = np.nonzero(cells & (A != 0.0))
    values = A[rows, cols].tolist()
    entries.extend(map(SimplificationEntry, repeat(rule), rows.tolist(), cols.tolist(), values))
    A[rows, cols] = 0.0
    return problem.with_matrix(A)


def simplify_pipeline(
    problem: Problem,
    classification: Classification,
    fixpoint: bool = False,
) -> tuple[Problem, SimplificationLog, Classification]:
    """Apply the first then the second rule, once each by default.

    ``classification`` is ``classify_all(problem)``; every row must be
    feasible, or :class:`InfeasibleRowError` is raised.  Zeroing an inert
    cell leaves it inert and every other cell as it was, so rule two reads
    the same classification as rule one and the result is classified
    once per pass.  With ``fixpoint=True`` the pair is repeated until a
    full pass changes nothing.  Returns the simplified problem, the
    merged log, which reports the selector-space size before any
    rewriting and after the last one, and the classification of the
    simplified problem.
    """
    before = choice_space_size(classification)
    entries: list[SimplificationEntry] = []
    current = problem
    while True:
        classification.require_feasible()
        zeroed = len(entries)
        current = _zero(current, "first", classification.inert, entries)
        dominated = _dominated_cells(current, classification)
        current = _zero(current, "second", dominated, entries)
        classification = classify_all(current)
        if not fixpoint or len(entries) == zeroed:
            break
    log = SimplificationLog(tuple(entries), before, choice_space_size(classification))
    return current, log, classification
