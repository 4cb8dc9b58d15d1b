"""Tests for the two selector-space simplification rules."""

import numpy as np
import pytest
from conftest import GOLDEN, columns, row_groups, row_values, structure_instance

import wpmfre.simplify
from wpmfre import (
    CLASSIFY_TOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    InfeasibleRowError,
    Problem,
    WpmParams,
    choice_space_size,
    classify_all,
    enumerate_candidates,
    exhaustive_candidates,
    feasible_candidates,
    max_solution,
    simplify_pipeline,
    solve,
    wpm,
)

P = WpmParams(0.75, 3.0)


def tiny(A, b, params=P):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return Problem(A, np.asarray(b, dtype=float), np.zeros(A.shape[1]), params)


def small_instances(count, start=0, cap=256):
    out = []
    seed = start
    while len(out) < count:
        prob = structure_instance(seed)
        seed += 1
        if choice_space_size(classify_all(prob)) <= cap:
            out.append(prob)
    return out


def rule_log(problem, rule):
    """The pipeline's log entries of one rule, and the problem with only those applied."""
    _, log, _ = simplify_pipeline(problem, classify_all(problem))
    entries = log.entries[log.entries["rule"] == rule]
    A = problem.A.copy()
    A[entries["row"], entries["col"]] = 0.0
    return problem.with_matrix(A), entries


def distinct_feasible_points(problem):
    cls = classify_all(problem)
    distinct = feasible_candidates(enumerate_candidates(cls))
    return sorted(map(tuple, distinct.points))


class TestFirstRule:
    def test_golden_zeroes_every_inert_entry(self, golden_problem):
        simplified, entries = rule_log(golden_problem, "first")
        expected = {
            (i, j) for i, inert in enumerate(GOLDEN["inert"]) for j in inert
        }
        assert {(row, col) for _, row, col, _ in entries.tolist()} == expected
        _, log, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        assert log.entries[: len(entries)].tolist() == entries.tolist()
        for _, row, col, old_value in entries.tolist():
            assert old_value == golden_problem.A[row, col]
            assert simplified.A[row, col] == 0.0

    def test_golden_active_entries_untouched(self, golden_problem):
        simplified, _ = rule_log(golden_problem, "first")
        for i, active in enumerate(GOLDEN["active"]):
            for j in active:
                assert simplified.A[i, j] == golden_problem.A[i, j]
        after = classify_all(simplified)
        assert [columns(row) for row in after.active] == GOLDEN["active"]

    def test_golden_choice_count_unchanged(self, golden_problem):
        simplified, _ = rule_log(golden_problem, "first")
        assert choice_space_size(classify_all(golden_problem)) == GOLDEN["choices_before"]
        assert choice_space_size(classify_all(simplified)) == GOLDEN["choices_before"]

    def test_zero_inert_entry_not_logged(self):
        prob = tiny([[0.9, 0.0]], [0.8657])
        simplified, log, _ = simplify_pipeline(prob, classify_all(prob))
        assert len(log.entries) == 0
        assert np.array_equal(simplified.A, prob.A)


class TestSecondRule:
    def test_golden_removals(self, golden_problem):
        _, log, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        second = log.entries[log.entries["rule"] == "second"]
        assert {(row, col) for _, row, col, _ in second.tolist()} == GOLDEN["second_rule_removals"]
        assert log.entries["rule"][-len(second):].tolist() == ["second"] * len(second)
        assert log.choices_before == GOLDEN["choices_before"]
        assert log.choices_after == GOLDEN["choices_after"]

    def test_golden_domination_inequality(self, golden_problem):
        A, b = golden_problem.A, golden_problem.b
        w, p = golden_problem.params.w, golden_problem.params.p
        # Entry (0, 2) is dominated by row 3 sharing active column 2.
        lhs = b[3] ** p - b[0] ** p
        rhs = w * (A[3, 2] ** p - A[0, 2] ** p)
        assert lhs == pytest.approx(0.0403, abs=1e-3)
        assert rhs == pytest.approx(0.1184, abs=1e-3)
        assert lhs < rhs - CLASSIFY_TOL
        # ... which is to say that its level does not fit under x_max[2]
        ms = max_solution(classify_all(golden_problem))
        assert ms.per_row[0, 2] > ms.overall[2] + CLASSIFY_TOL
        assert not ms.fits[0, 2] and ms.fits[3, 2]

    def test_golden_removals_are_the_unfitting_active_entries(self, golden_problem):
        cls = classify_all(golden_problem)
        fits = max_solution(cls).fits
        unfitting = {tuple(cell) for cell in np.argwhere(cls.active & ~fits).tolist()}
        assert unfitting == GOLDEN["second_rule_removals"]

    def test_identical_rows_not_removed(self):
        b = np.max(wpm(np.array([0.6, 0.4]), np.array([0.5, 0.2]), P))
        prob = tiny([[0.6, 0.4], [0.6, 0.4]], [b, b])
        assert rule_log(prob, "second")[1].tolist() == []

    def test_disjoint_active_columns_not_removed(self):
        prob = tiny([[0.8, 0.0], [0.0, 0.8]], [0.8, 0.8])
        cls = classify_all(prob)
        assert [columns(row) for row in cls.active] == [(0,), (1,)]
        assert rule_log(prob, "second")[1].tolist() == []


class TestPipeline:
    def test_golden_counts_and_entries(self, golden_problem):
        _, log, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        assert log.choices_before == GOLDEN["choices_before"]
        assert log.choices_after == GOLDEN["choices_after"]
        entries = log.entries.tolist()
        first = [e for e in entries if e[0] == "first"]
        second = {(row, col) for rule, row, col, _ in entries if rule == "second"}
        assert len(first) == 25
        assert second == GOLDEN["second_rule_removals"]
        for _, row, col, old_value in entries:
            assert old_value == golden_problem.A[row, col]

    def test_golden_maximum_preserved(self, golden_problem):
        simplified, _, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        before = max_solution(classify_all(golden_problem)).overall
        after = max_solution(classify_all(simplified)).overall
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_golden_idempotent(self, golden_problem):
        simplified, _, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        again, log, _ = simplify_pipeline(simplified, classify_all(simplified))
        assert len(log.entries) == 0
        assert log.choices_before == log.choices_after == GOLDEN["choices_after"]
        assert np.array_equal(again.A, simplified.A)

    @pytest.mark.parametrize("second_pass", [False, True])
    def test_returns_classification_of_result(self, golden_problem, second_pass):
        simplified, _, after = simplify_pipeline(golden_problem, classify_all(golden_problem))
        if second_pass:
            simplified, _, after = simplify_pipeline(simplified, after)
        # no cell zeroed here is active again at 0, so the input's masks,
        # restricted, are the re-classification's
        assert row_groups(after) == row_groups(classify_all(simplified))

    def test_single_row_uses_only_first_rule(self):
        prob = tiny([[0.8969, 0.8403, 0.3]], [0.8657])
        _, log, _ = simplify_pipeline(prob, classify_all(prob))
        assert (log.entries["rule"] == "first").all()
        assert {(row, col) for _, row, col, _ in log.entries.tolist()} == {(0, 2)}

    def test_infeasible_row_rejected(self):
        prob = tiny([[1.0], [0.5]], [0.5, 0.5])
        with pytest.raises(InfeasibleRowError):
            simplify_pipeline(prob, classify_all(prob))


class TestPreservation:
    def test_distinct_feasible_points_preserved(self):
        for prob in small_instances(30, start=2000):
            simplified, _, _ = simplify_pipeline(prob, classify_all(prob))
            before = np.array(distinct_feasible_points(prob))
            after = np.array(distinct_feasible_points(simplified))
            assert before.shape == after.shape
            assert np.allclose(before, after, rtol=0.0, atol=1e-9)

    def test_cell_samples_solve_both_forms(self):
        rng = np.random.default_rng(77)
        for prob in small_instances(12, start=2600):
            simplified, _, _ = simplify_pipeline(prob, classify_all(prob))
            for source, target in ((prob, simplified), (simplified, prob)):
                cls = classify_all(source)
                x_max = max_solution(cls).overall
                for point in feasible_candidates(enumerate_candidates(cls)).points:
                    lo = np.minimum(point, x_max)
                    u = rng.uniform(size=(40, source.n))
                    points = lo + u * (x_max - lo)
                    values = row_values(target, points)
                    assert np.all(np.abs(values - target.b) <= 1e-6)

    def test_monotone_shrinkage(self):
        for prob in small_instances(40, start=3200):
            before = classify_all(prob)
            simplified, log, after = simplify_pipeline(prob, before)
            for row_b, row_a in zip(before.active, after.active):
                assert set(columns(row_a)) <= set(columns(row_b))
            assert log.choices_after <= log.choices_before
            assert log.choices_after == choice_space_size(after)
            assert log.choices_after <= choice_space_size(classify_all(simplified))


class TestSolvePathsAgree:
    """Rule two zeroes only what enumeration would reject anyway."""

    def test_knife_edge_entry_kept(self):
        # (1, 2) exceeds x_max[2] by 9.9e-10, inside CLASSIFY_TOL, and is
        # the cheapest corner's column; a b**p-space margin used to zero it
        A = [
            [0.12245481138711845, 1.0, 0.5971247975846246],
            [0.38869056989416706, 0.48734122987881145, 0.6891981655879991],
        ]
        b = [0.7144031426504925, 0.7272827644506391]
        c = [0.5228572182362361, 0.8412309011710783, 0.8097918238508375]
        prob = Problem(A, b, c, WpmParams(0.1477402252634644, 1.4773469572384912))
        simplified, raw = solve(prob), solve(prob, simplify=False)
        assert simplified.z_star == raw.z_star == pytest.approx(0.59421522132196, abs=1e-12)
        assert simplified.x_star.tobytes() == raw.x_star.tobytes()
        oracle = min(
            float(prob.c @ cand.point) for cand in exhaustive_candidates(prob) if cand.feasible
        )
        assert oracle == pytest.approx(0.59421522132196, abs=1e-9)

    def test_tiny_entry_does_not_empty_a_row(self):
        prob = Problem([[1e-9], [1.0]], [0.0, 0.25], [1.0], WpmParams(0.5, 0.5))
        for simplify in (True, False):
            report = solve(prob, simplify=simplify)
            assert report.status == STATUS_OPTIMAL
            assert report.z_star == 0.0

    def test_near_conflicting_rows_reported_not_raised(self):
        # x_max misses row 1 by 5.5e-9, inside FEASIBILITY_TOL, and row 1's
        # one entry does not fit: no corner, on both paths
        b = [wpm(0.7, 0.3, P), wpm(0.7, 0.3 + 1e-7, P)]
        prob = Problem([[0.7], [0.7]], b, [0.0], P)
        for simplify in (True, False):
            report = solve(prob, simplify=simplify)
            assert report.status == STATUS_INFEASIBLE
            assert report.diagnostic == {"reason": "no_corner_under_x_max", "rows": [1]}


class TestRuleTwoCellsLeaveSelectorSpace:
    """A zeroed coefficient can be active again; rule two's cell stays out."""

    def problem(self):
        A = [
            [0.6369616873214543, 0.2697867137638703],
            [0.04097352393619469, 0.016527635528529094],
        ]
        b = [0.6898516251151068, 0.575003396378145]
        c = [2.132715515343598, 4.589931219679968]
        return Problem(A, b, c, P)

    def test_zeroed_cell_not_counted(self):
        prob = self.problem()
        simplified, log, after = simplify_pipeline(prob, classify_all(prob))
        second = log.entries[log.entries["rule"] == "second"]
        assert [(rule, row, col) for rule, row, col, _ in second.tolist()] == [("second", 1, 0)]
        # b[1]**p <= 1 - w: the zeroed coefficient is active again
        assert classify_all(simplified).active[1, 0]
        assert not after.active[1, 0] and after.inert[1, 0]
        assert log.choices_before == 2 and log.choices_after == 1
        assert not hasattr(wpmfre.simplify, "classify_all")

    def test_solves_within_one_selector(self):
        report = solve(self.problem(), limit=1)
        assert report.status == STATUS_OPTIMAL
        assert report.z_star == 5.923959377393647
        assert report.e_star == (0, 1)
        assert report.candidates_total == 1
