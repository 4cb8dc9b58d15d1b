"""Shared test fixtures and helpers.

The bundled 5x7 reference instance ships with frozen expected values:
column classifications, the per-row and global maximum solutions, the
simplification outcome, the two surviving candidate points, and the
optimum.  All index data here is 0-based; tests that quote 1-based
reference sets convert explicitly.

Random instances for the structure suites are produced by forward
composition through :func:`structure_instance`.  Dimension and parameter
draws are decoupled from the instance content draw so the two can be
varied independently.  The parameter ranges (w in [0.3, 0.7], p in
[1, 3]) keep the operator's slope away from degenerate flatness: a
coordinate perturbation of 1e-3 then moves some row value by at least
(1-w) * 1e-9 / p > 1e-11, so perturbation tests can use a violation
threshold of 1e-12 without floating-point ambiguity.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from wpmfre import Problem, WpmParams, generate_instance, load_problem, wpm, wpm_inverse

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_5x7.json"

# Frozen expectations for the reference instance (0-based indices).
GOLDEN = {
    "m": 5,
    "n": 7,
    "w": 0.75,
    "p": 3.0,
    "active": [(1, 2), (0, 3), (1, 4, 5), (2,), (1, 3)],
    "inert": [
        (0, 3, 4, 5, 6),
        (1, 2, 4, 5, 6),
        (0, 2, 3, 6),
        (0, 1, 3, 4, 5, 6),
        (0, 2, 4, 5, 6),
    ],
    "per_row_max": np.array(
        [
            [1.0, 0.7552, 0.9341, 1.0, 1.0, 1.0, 1.0],
            [0.9982, 1.0, 1.0, 0.9970, 1.0, 1.0, 1.0],
            [1.0, 0.9471, 1.0, 1.0, 0.9908, 0.9107, 1.0],
            [1.0, 1.0, 0.7955, 1.0, 1.0, 1.0, 1.0],
            [1.0, 0.8286, 1.0, 0.7456, 1.0, 1.0, 1.0],
        ]
    ),
    "x_max": np.array([0.9982, 0.7552, 0.7955, 0.7456, 0.9908, 0.9107, 1.0]),
    "second_rule_removals": {(0, 2), (1, 3), (2, 1), (4, 1)},
    "choices_before": 24,
    "choices_after": 2,
    "candidate_points": np.array(
        [
            [0.9982, 0.7552, 0.7955, 0.7456, 0.0, 0.9107, 0.0],
            [0.9982, 0.7552, 0.7955, 0.7456, 0.9908, 0.0, 0.0],
        ]
    ),
    "e_star": (1, 0, 5, 2, 3),
    "x_star": np.array([0.9982, 0.7552, 0.7955, 0.7456, 0.0, 0.9107, 0.0]),
    "z_star": -15.4085,
    "z_star_frozen": -15.408445799554482,
}

STRUCTURE_SEED_COUNT = 200


@pytest.fixture()
def golden_problem() -> Problem:
    return load_problem(str(GOLDEN_PATH))


def structure_instance(
    seed: int,
    m_max: int = 3,
    n_max: int = 4,
    w_range: tuple[float, float] = (0.3, 0.7),
    p_range: tuple[float, float] = (1.0, 3.0),
) -> Problem:
    """Random feasible instance; dimensions and parameters derive from the seed."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    w = float(rng.uniform(*w_range))
    p = float(rng.uniform(*p_range))
    return generate_instance(m, n, WpmParams(w, p), seed=seed + 10_000)


def columns(mask_row: np.ndarray) -> tuple[int, ...]:
    """The columns set in one row of a mask, in ascending order."""
    return tuple(np.flatnonzero(mask_row).tolist())


def row_groups(classification) -> list[tuple[tuple[int, ...], ...]]:
    """Every row's ``(blocking, inert, active)`` columns, from the masks."""
    masks = (classification.blocking, classification.inert, classification.active)
    return [tuple(columns(mask[i]) for mask in masks) for i in range(len(classification.active))]


def selectors(candidates) -> list[tuple[int, ...]]:
    """Every candidate's selector, as a tuple of columns."""
    return list(map(tuple, candidates.choices.tolist()))


def row_values(problem: Problem, points: np.ndarray) -> np.ndarray:
    """Composed value of every row at every point; shape (len(points), m)."""
    points = np.atleast_2d(points)
    out = np.empty((points.shape[0], problem.m))
    for i in range(problem.m):
        vals = wpm(problem.A[i][None, :], points, problem.params)
        out[:, i] = np.max(vals, axis=1)
    return out


def relaxed_union_bounds(problem: Problem, slack: float):
    """Inflated cell bounds for near-solutions with residual at most ``slack``.

    Returns (upper, lower) where ``upper`` is an n-vector every
    near-solution must stay below, and ``lower`` an m x n matrix such
    that each row i of a near-solution must have some coordinate j with
    x[j] >= lower[i, j].  Entries of ``lower`` are +inf for columns that
    cannot support their row even at the relaxed target.
    """
    params = problem.params
    upper = np.ones(problem.n)
    lower = np.full((problem.m, problem.n), np.inf)
    for i in range(problem.m):
        hi_target = min(float(problem.b[i]) + slack, 1.0)
        lo_target = max(float(problem.b[i]) - slack, 0.0)
        for j in range(problem.n):
            a = float(problem.A[i, j])
            at_zero = wpm(a, 0.0, params)
            at_one = wpm(a, 1.0, params)
            if at_zero > hi_target:
                # the entry overshoots the relaxed target at any x
                upper[j] = -np.inf
            elif at_one > hi_target:
                upper[j] = min(upper[j], wpm_inverse(a, hi_target, params))
            if at_zero >= lo_target:
                lower[i, j] = 0.0
            elif at_one >= lo_target:
                lower[i, j] = wpm_inverse(a, lo_target, params)
    return upper, lower
