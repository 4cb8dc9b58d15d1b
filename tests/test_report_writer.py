"""The direct report writer against ``json.dumps``, and degenerate closed forms.

``report_dumps`` writes the candidate list from the report's arrays and
the simplification log from its entries;
``json.dumps(report_to_dict(report), indent=2)`` is the reference it must
match byte for byte.  On ``A == b == t`` every entry is active with level
``t``, so a selector's corner is ``t`` on the columns it picks: the counts
of selectors and distinct corners have closed forms.
"""

import itertools
import json
from math import comb

import numpy as np
import pytest
from conftest import GOLDEN_PATH

from wpmfre import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    Problem,
    WpmParams,
    classify_all,
    check_membership,
    enumerate_candidates,
    exhaustive_candidates,
    feasible_candidates,
    generate_instance,
    load_problem,
    report_dumps,
    report_to_dict,
    solve,
)

DEGENERATE_SHAPES = [(3, 4), (4, 5)]


def degenerate(m, n, negative, t=0.6):
    c = np.linspace(-1.0, 1.0, n) if negative else np.linspace(0.5, 2.0, n)
    return Problem(np.full((m, n), t), np.full(m, t), c, WpmParams(0.75, 3.0))


def many_rows(m, wide, t=0.9):
    """``m`` rows over three columns; the first ``wide`` rows are ``A == b == t``.

    The other rows have 0.1 in columns 1 and 2, which cannot reach ``t``
    even at 1, so only column 0 is active there: the selector count is
    ``3**wide`` however large ``m`` is.
    """
    A = np.full((m, 3), t)
    A[wide:, 1:] = 0.1
    return Problem(A, np.full(m, t), np.array([1.0, -0.5, 2.0]), WpmParams(0.75, 3.0))


def generated(seed):
    m, n = 2 + seed % 4, 2 + (seed // 4) % 4
    return generate_instance(m, n, WpmParams(0.3 + 0.02 * seed, 1.0 + 0.1 * seed), seed)


CASES = {
    "golden": lambda: solve(load_problem(str(GOLDEN_PATH))),
    "golden-no-simplify": lambda: solve(load_problem(str(GOLDEN_PATH)), simplify=False),
    **{
        f"degenerate-{m}x{n}-{'neg' if neg else 'pos'}-{'no-simplify' if not simp else 'simplify'}": (
            lambda m=m, n=n, neg=neg, simp=simp: solve(degenerate(m, n, neg), simplify=simp)
        )
        for m, n in DEGENERATE_SHAPES
        for neg in (True, False)
        for simp in (True, False)
    },
    **{
        f"generated-{seed}-{'simplify' if simp else 'no-simplify'}": (
            lambda seed=seed, simp=simp: solve(generated(seed), simplify=simp)
        )
        for seed in range(20)
        for simp in (True, False)
    },
    "infeasible-no-corner": lambda: solve(generate_instance(3, 4, WpmParams(0.5, 10.0), 0)),
    "infeasible-blocking-row": lambda: solve(
        Problem(np.array([[1.0], [0.5]]), np.array([0.5, 0.5]), np.zeros(1), WpmParams(0.75, 3.0))
    ),
    **{
        f"many-rows-{m}x3-{'simplify' if simp else 'no-simplify'}": (
            lambda m=m, simp=simp: solve(many_rows(m, 5), simplify=simp)
        )
        for m in (40, 70)
        for simp in (True, False)
    },
    "budget-exceeded": lambda: solve(load_problem(str(GOLDEN_PATH)), simplify=False, limit=5),
    "log-128-entries": lambda: solve(generate_instance(12, 12, WpmParams(0.75, 3.0), 0)),
    "log-233-entries": lambda: solve(generate_instance(16, 16, WpmParams(0.75, 3.0), 1)),
    "log-empty": lambda: solve(degenerate(3, 4, False)),
    "log-none": lambda: solve(
        generate_instance(12, 12, WpmParams(0.75, 3.0), 0), simplify=False
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_matches_json_dumps(case):
    report = CASES[case]()
    assert report_dumps(report) == json.dumps(report_to_dict(report), indent=2)


def test_cases_cover_every_status():
    statuses = {CASES[case]().status for case in ("golden", "infeasible-no-corner", "budget-exceeded")}
    assert statuses == {STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_BUDGET_EXCEEDED}
    assert all(
        CASES[f"generated-{seed}-simplify"]().status == STATUS_OPTIMAL for seed in range(20)
    )


def test_cases_cover_log_sizes():
    """The writer cases include long, empty and absent simplification logs."""
    logs = {case: CASES[case]().simplification for case in CASES if case.startswith("log-")}
    assert len(logs["log-128-entries"].entries) == 128
    assert len(logs["log-233-entries"].entries) == 233
    assert logs["log-empty"].entries == ()
    assert logs["log-none"] is None


@pytest.mark.parametrize("m, n", DEGENERATE_SHAPES)
@pytest.mark.parametrize("negative", [True, False])
def test_degenerate_closed_forms(m, n, negative):
    prob = degenerate(m, n, negative)
    candidates = enumerate_candidates(classify_all(prob))
    assert len(candidates) == n**m
    assert candidates.feasible.all()
    distinct = feasible_candidates(candidates)
    assert len(distinct) == sum(comb(n, k) for k in range(1, min(m, n) + 1))
    first = list(itertools.islice(itertools.product(range(n), repeat=m), 10))
    assert [cand.choice for cand in itertools.islice(candidates, 10)] == first
    for cand in distinct:
        assert np.array_equal(cand.point != 0.0, np.isin(np.arange(n), cand.choice))
    report = solve(prob)
    assert report.candidates_total == n**m
    assert report.candidates_feasible == len(distinct)


@pytest.mark.parametrize("m", [40, 70])
@pytest.mark.parametrize("simplify", [True, False])
def test_one_column_degenerate_many_rows(m, simplify):
    """``A == b == t`` with one column: one selector, corner and optimum at ``t``."""
    t = 0.6
    prob = Problem(np.full((m, 1), t), np.full(m, t), np.array([2.0]), WpmParams(0.75, 3.0))
    candidates = enumerate_candidates(classify_all(prob))
    assert len(candidates) == 1
    assert candidates[0].choice == (0,) * m
    assert candidates[0].point.tolist() == [t]
    report = solve(prob, simplify=simplify)
    assert report.status == STATUS_OPTIMAL
    assert report.x_star.tolist() == [t]
    assert report.z_star == 2.0 * t
    assert report.candidates_total == report.candidates_feasible == 1
    assert report_dumps(report) == json.dumps(report_to_dict(report), indent=2)


@pytest.mark.parametrize("m", [40, 70])
def test_many_rows_match_oracle(m):
    """More rows than numpy has array dimensions, against the scalar oracle."""
    prob = many_rows(m, 5)
    fast = enumerate_candidates(classify_all(prob))
    slow = exhaustive_candidates(prob)
    assert len(fast) == len(slow) == 3**5
    for f, s in zip(fast, slow):
        assert f.choice == s.choice
        assert f.point == pytest.approx(s.point, abs=1e-10)
        assert f.feasible == s.feasible
    assert all(f.choice[5:] == (0,) * (m - 5) for f in fast)
    distinct = feasible_candidates(fast)
    # the narrow rows always pick column 0, so a corner is {0} plus any subset of {1, 2}
    assert len(distinct) == 4
    report = solve(prob, simplify=False)
    assert report.status == STATUS_OPTIMAL
    assert check_membership(prob, report.x_star)[0]
