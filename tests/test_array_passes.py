"""The array passes against entry-by-entry scalar references.

Classification, the levels behind ``x_max`` and the two simplification
rules run as array passes over the whole matrix.  Each is checked here
against a per-entry loop in plain Python floats, written in this file,
over the whole parameter domain ``0 < w < 1``, ``0.02 <= p <= 200``, with
entries exactly 0 and 1 and ``A == b == t`` ties drawn often.  Levels and
rule-two cells must agree bit for bit and in the same order: the array
passes use ``np.float_power`` where the scalar code raises a single value
to a power, and it rounds as Python's ``**`` does.  On the same instances,
with costs drawn, ``solve`` must report the same with and without
simplification.
"""

import warnings

import numpy as np
import pytest
from conftest import columns, row_groups
from hypothesis import given, settings
from hypothesis import strategies as st

from wpmfre import (
    CLASSIFY_TOL,
    EnumerationBudgetError,
    MembershipError,
    Problem,
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    WpmParams,
    choice_space_size,
    classify_all,
    enumerate_candidates,
    feasible_candidates,
    generate_instance,
    max_solution,
    simplify_pipeline,
    solve,
    wpm,
    wpm_inverse,
)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def problems(draw):
    """A problem over the whole domain, with 0, 1 and a tie value ``t`` drawn often.

    Half the time ``b`` is composed at a hidden point, so that every row is
    feasible and has active entries; otherwise every target is drawn on
    its own like the entries.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    w = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    p = draw(st.floats(0.02, 200.0))
    t = draw(st.floats(0.0, 1.0))
    value = st.one_of(st.sampled_from([0.0, 1.0, t]), st.floats(0.0, 1.0))
    A = np.array(draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(m, n)
    params = WpmParams(w, p)
    if draw(st.booleans()):
        hidden = np.array(draw(st.lists(value, min_size=n, max_size=n)))
        b = np.max(wpm(A, hidden[None, :], params), axis=1)
    else:
        b = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    # some entries sit exactly on a scalar threshold of their row
    edges = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), st.booleans())
    for i, j, side in draw(st.lists(edges, max_size=m * n)):
        edge = scalar_thresholds(float(b[i]), params)[side]
        if edge is not None and 0.0 <= edge <= 1.0:
            A[i, j] = edge
    return Problem(A, b, np.zeros(n), params)


def scalar_thresholds(t, params):
    """In Python floats: ``a`` blocks above the first and is inert below the second.

    The first is None when ``w**(1/p)`` underflows to 0 (nothing blocks),
    the second when ``t**p < 1 - w`` (nothing is inert).
    """
    w, p = params.w, params.p
    scale = w ** (1.0 / p)
    t_pow = t**p
    blocking = t / scale + CLASSIFY_TOL if scale > 0.0 else None
    reach = ((t_pow + w - 1.0) / w) ** (1.0 / p) if t_pow >= 1.0 - w else None
    return blocking, None if reach is None else reach - CLASSIFY_TOL


def scalar_groups(prob):
    """Per-entry classification in Python floats: blocking, inert, active."""
    groups = []
    for i in range(prob.m):
        blocking, inert = scalar_thresholds(float(prob.b[i]), prob.params)
        row = ([], [], [])
        for j in range(prob.n):
            a = float(prob.A[i, j])
            if blocking is not None and a > blocking:
                row[0].append(j)
            elif inert is not None and a < inert:
                row[1].append(j)
            else:
                row[2].append(j)
        groups.append(tuple(map(tuple, row)))
    return groups


def scalar_level(a, t, params):
    """The closed-form inverse in Python floats, clamped into [0, 1]."""
    w, p = params.w, params.p
    numerator = t**p - w * a**p
    return min((max(numerator, 0.0) / (1.0 - w)) ** (1.0 / p), 1.0)


def scalar_rule_two_cells(prob, classifications):
    """Rule two entry by entry in Python floats: ``(row, col)`` in order.

    An active entry is taken out when its level exceeds its column's
    minimum level over the active rows by more than ``CLASSIFY_TOL``, but
    only in a row that keeps at least one active entry within that bound.
    """
    active = [columns(row) for row in classifications.active]
    levels = {
        (i, j): scalar_level(float(prob.A[i, j]), float(prob.b[i]), prob.params)
        for i, cols in enumerate(active)
        for j in cols
    }
    x_max = [min([v for (_, j), v in levels.items() if j == col], default=1.0) for col in range(prob.n)]
    cells = []
    for i, cols in enumerate(active):
        doomed = [j for j in cols if levels[i, j] > x_max[j] + CLASSIFY_TOL]
        if len(doomed) < len(cols):
            cells += [(i, j) for j in doomed]
    return cells


def scalar_rule_two(prob, classifications):
    """The cells of rule two that it zeroes: ``(row, col, old value)`` in order."""
    cells = [(i, j, float(prob.A[i, j])) for i, j in scalar_rule_two_cells(prob, classifications)]
    return [cell for cell in cells if cell[2] != 0.0]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestClassification:
    @SETTINGS
    @given(problems())
    def test_masks_match_scalar_classification(self, prob):
        expected = scalar_groups(prob)
        got = classify_all(prob)
        assert row_groups(got) == expected
        assert got.active.shape == (prob.m, prob.n)
        for i in (0, prob.m - 1):
            assert row_groups(classify_all(prob))[i] == row_groups(got)[i]

    def test_entries_one_float_around_every_threshold(self):
        # numpy's array ``**`` rounds some of these thresholds differently
        # from the scalar one, and then an entry next to it changes group
        rng = np.random.default_rng(17)
        for _ in range(200):
            w, p = rng.uniform(0.01, 0.99), np.exp(rng.uniform(np.log(0.02), np.log(200)))
            params = WpmParams(w, p)
            b = rng.uniform(size=10)
            rows = []
            for t in b.tolist():
                row = []
                for edge in scalar_thresholds(t, params):
                    edge = 0.5 if edge is None else edge
                    row += [float(np.nextafter(edge, step * np.inf)) for step in (-1, 1)] + [edge]
                rows.append(np.clip(row, 0.0, 1.0))
            prob = Problem(np.array(rows), b, np.zeros(6), params)
            assert row_groups(classify_all(prob)) == scalar_groups(prob)

    def test_underflowing_blocking_scale(self):
        # w**(1/p) == 0.0 here: a threshold of b / 0 used to raise
        params = WpmParams(1e-7, 0.02)
        assert params.blocking_scale == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(generate_instance(3, 4, params, 0))
        assert report.status == STATUS_OPTIMAL


class TestLevels:
    @SETTINGS
    @given(problems())
    def test_levels_bit_equal_to_scalar_inverse(self, prob):
        classifications = classify_all(prob)
        if classifications.infeasible:
            return
        ms = max_solution(classifications)
        expected = np.ones((prob.m, prob.n))
        for i, j in np.argwhere(classifications.active).tolist():
            a, t = float(prob.A[i, j]), float(prob.b[i])
            expected[i, j] = scalar_level(a, t, prob.params)
            assert bits(wpm_inverse(a, t, prob.params)) == bits(expected[i, j])
            assert bits(classifications.levels[i, j]) == bits(expected[i, j])
        assert bits(ms.per_row) == bits(expected)
        assert bits(ms.overall) == bits(expected.min(axis=0))


def pipeline_entries(prob, rule):
    """The pipeline's log entries of one rule, as ``(rule, row, col, old value)``."""
    _, log, _ = simplify_pipeline(prob, classify_all(prob))
    return log.entries[log.entries["rule"] == rule].tolist()


def masks(classification):
    groups = (classification.blocking, classification.inert, classification.active)
    return [group.tobytes() for group in groups]


class TestRules:
    @SETTINGS
    @given(problems())
    def test_rule_two_matches_scalar_fit_test(self, prob):
        classifications = classify_all(prob)
        if classifications.infeasible:
            return
        expected = [("second", *cell) for cell in scalar_rule_two(prob, classifications)]
        assert pipeline_entries(prob, "second") == expected

    @SETTINGS
    @given(problems())
    def test_rule_one_zeroes_inert_cells_in_row_order(self, prob):
        classifications = classify_all(prob)
        if classifications.infeasible:
            return
        expected = [
            ("first", i, j, float(prob.A[i, j]))
            for i, j in np.argwhere(classifications.inert).tolist()
            if prob.A[i, j] != 0.0
        ]
        assert pipeline_entries(prob, "first") == expected

    @SETTINGS
    @given(problems())
    def test_rule_one_leaves_every_mask_unchanged(self, prob):
        # zeroing an inert cell keeps it inert, so rule two may reuse the input's masks
        classification = classify_all(prob)
        A = prob.A.copy()
        A[classification.inert] = 0.0
        assert masks(classify_all(prob.with_matrix(A))) == masks(classification)

    @SETTINGS
    @given(problems())
    def test_second_pass_zeroes_nothing(self, prob):
        classification = classify_all(prob)
        if classification.infeasible:
            return
        once, log, after = simplify_pipeline(prob, classification)
        again, log_again, _ = simplify_pipeline(once, after)
        assert len(log_again.entries) == 0
        assert log_again.choices_before == log_again.choices_after == log.choices_after
        assert bits(again.A) == bits(once.A)


    @SETTINGS
    @given(problems())
    def test_returned_classification_is_the_input_restricted(self, prob):
        classification = classify_all(prob)
        if classification.infeasible:
            return
        once, _, after = simplify_pipeline(prob, classification)
        moved = np.zeros((prob.m, prob.n), dtype=bool)
        for cell in scalar_rule_two_cells(prob, classification):
            moved[cell] = True
        # rule two's cells go from active to inert, even where a 0
        # coefficient is active again; every other cell keeps its group
        again = classify_all(once)
        assert after.infeasible == again.infeasible
        assert np.array_equal(after.blocking, again.blocking)
        assert np.array_equal(after.inert, again.inert | moved)
        assert np.array_equal(after.active, again.active & ~moved)
        # one definition of a stranded row, with and without simplification
        for cls in (classification, after):
            assert max_solution(cls).stranded == enumerate_candidates(cls).stranded
        # what is left active fits, apart from the rows with no corner
        stranded = list(enumerate_candidates(after).stranded)
        kept = np.setdiff1d(np.arange(prob.m), stranded)
        fits = max_solution(after).fits
        assert np.array_equal(fits[kept], after.active[kept])
        assert not fits[stranded].any()
        # a second pass keeps the masks and zeroes nothing
        _, log_again, after_again = simplify_pipeline(once, after)
        assert len(log_again.entries) == 0
        assert masks(after_again) == masks(after)

    @SETTINGS
    @given(problems())
    def test_returned_classification_keeps_x_max_and_fits(self, prob):
        classification = classify_all(prob)
        if classification.infeasible:
            return
        _, _, after = simplify_pipeline(prob, classification)
        before, restricted = max_solution(classification), max_solution(after)
        assert bits(restricted.overall) == bits(before.overall)
        assert np.array_equal(restricted.fits, before.fits)


def check_log_against_masks(prob):
    """The log's cells, values and order, and the zeros they leave, from the masks.

    Returns the log, or None when a row is infeasible.
    """
    classification = classify_all(prob)
    if classification.infeasible:
        return None
    simplified, log, _ = simplify_pipeline(prob, classification)
    entries, A = log.entries, prob.A
    assert entries.dtype.names == ("rule", "row", "col", "old_value")
    cells = np.stack([entries["row"], entries["col"]], axis=1)
    first = entries["rule"] == "first"
    # rule one's cells come first, then rule two's, each in row-major order
    assert np.array_equal(first, np.arange(len(entries)) < np.count_nonzero(first))
    assert (entries["rule"][~first] == "second").all()
    assert np.array_equal(cells[first], np.argwhere(classification.inert & (A != 0.0)))
    ms = max_solution(classification)
    unfitting = classification.active & ~ms.fits
    unfitting[list(ms.stranded)] = False
    assert np.array_equal(cells[~first], np.argwhere(unfitting & (A != 0.0)))
    assert bits(entries["old_value"]) == bits(A[entries["row"], entries["col"]])
    zeroed = np.zeros(A.shape, dtype=bool)
    zeroed[entries["row"], entries["col"]] = True
    assert bits(simplified.A) == bits(np.where(zeroed, 0.0, A))
    assert not entries.flags.writeable
    with pytest.raises(ValueError):
        entries["old_value"][...] = 0.0
    return log


class TestArrayLog:
    @SETTINGS
    @given(problems())
    def test_log_matches_masks(self, prob):
        check_log_against_masks(prob)

    def test_log_matches_masks_at_100x100(self):
        log = check_log_against_masks(generate_instance(100, 100, WpmParams(0.75, 3.0), 4))
        assert len(log.entries) == 9833


class TestCornerArrays:
    """``first`` and ``corner`` index the distinct corners of an enumeration.

    ``problems()`` draws at most 6x6, so every selector space is at most
    ``6**6`` and within the default limit.
    """

    @SETTINGS
    @given(problems())
    def test_first_and_corner_against_the_rows(self, prob):
        classification = classify_all(prob)
        if classification.infeasible:
            return
        _, _, simplified = simplify_pipeline(prob, classification)
        for cls in (classification, simplified):
            cands = enumerate_candidates(cls)
            first, corner = cands.first, cands.corner
            assert bits(cands.points[first][corner]) == bits(cands.points)
            assert np.array_equal(corner[first], np.arange(len(first)))
            assert (first[corner] <= np.arange(len(cands))).all()
            keys = [point.tobytes() for point in cands.points[first]]
            assert len(set(keys)) == len(keys)
            assert np.array_equal(cands.feasible[first][corner], cands.feasible)
            # the first selector of each distinct point among the feasible rows
            seen, expected = set(), []
            for k in np.flatnonzero(cands.feasible).tolist():
                key = cands.points[k].tobytes()
                if key not in seen:
                    seen.add(key)
                    expected.append(k)
            distinct = feasible_candidates(cands)
            assert np.array_equal(distinct.choices, cands.choices[expected])
            assert bits(distinct.points) == bits(cands.points[expected])
            assert distinct.feasible.all() and distinct.stranded == cands.stranded
            assert np.array_equal(distinct.first, np.arange(len(expected)))
            assert np.array_equal(distinct.corner, np.arange(len(expected)))


def solve_outcome(prob, simplify):
    """What ``solve`` reports, or the ``MembershipError`` it raises."""
    try:
        report = solve(prob, simplify=simplify)
    except MembershipError as exc:
        return ("MembershipError", str(exc))
    x_star = None if report.x_star is None else bits(report.x_star)
    return (
        report.status,
        x_star,
        report.z_star,
        report.e_star,
        report.candidates_feasible,
        report.diagnostic,
    )


@st.composite
def costed_problems(draw):
    prob = draw(problems())
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=prob.n, max_size=prob.n))
    return Problem(prob.A, prob.b, c, prob.params)


class TestSolvePaths:
    @SETTINGS
    @given(costed_problems())
    def test_simplified_and_raw_solve_agree(self, prob):
        # rule two zeroes exactly the active entries that enumeration finds
        # do not fit, so the simplified path reports what the raw path does
        simplified, raw = solve_outcome(prob, True), solve_outcome(prob, False)
        if STATUS_BUDGET_EXCEEDED in (simplified[0], raw[0]):
            return
        assert simplified == raw


class TestInfeasibleRows:
    @SETTINGS
    @given(problems())
    def test_infeasible_rows_match_row_views(self, prob):
        classification = classify_all(prob)
        expected = [
            i for i, (blocking, _, active) in enumerate(row_groups(classification))
            if blocking or not active
        ]
        assert list(classification.infeasible) == expected


class TestExactSelectorCounts:
    """Selector counts stay exact Python integers far beyond int64."""

    def test_sixteen_by_sixteen_all_active(self):
        params = WpmParams(0.75, 3.0)
        prob = Problem(np.full((16, 16), 0.6), np.full(16, 0.6), np.ones(16), params)
        classifications = classify_all(prob)
        assert all(len(columns(row)) == 16 for row in classifications.active)
        assert choice_space_size(classifications) == 16**16
        with pytest.raises(EnumerationBudgetError) as info:
            enumerate_candidates(classifications)
        assert info.value.required == 16**16
        _, log, _ = simplify_pipeline(prob, classifications)
        assert type(log.choices_before) is int and log.choices_before == 16**16
        assert type(log.choices_after) is int and log.choices_after == 16**16
        report = solve(prob, limit=500)
        assert report.diagnostic["required"] == 16**16
