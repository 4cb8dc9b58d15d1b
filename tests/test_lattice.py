"""Maximum solution, minimal candidates, and cell-structure tests."""

import itertools

import numpy as np
import pytest
from conftest import GOLDEN, relaxed_union_bounds, row_values, structure_instance

from wpmfre import (
    CLASSIFY_TOL,
    EnumerationBudgetError,
    InactiveColumnError,
    InfeasibleRowError,
    Problem,
    WpmParams,
    check_membership,
    choice_space_size,
    classify_all,
    enumerate_candidates,
    feasible_candidates,
    max_solution,
    minimal_solution_row,
    wpm,
    wpm_inverse,
)

P = WpmParams(0.75, 3.0)


def tiny(A, b, params=P):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return Problem(A, np.asarray(b, dtype=float), np.zeros(A.shape[1]), params)


def feasible_structure_instances(count, start=0):
    """First ``count`` generated instances whose selector space is small."""
    out = []
    seed = start
    while len(out) < count:
        prob = structure_instance(seed)
        seed += 1
        cls = classify_all(prob)
        if choice_space_size(cls) <= 256:
            out.append((prob, cls))
    return out


class TestMaxSolution:
    def test_golden_per_row_values(self, golden_problem):
        ms = max_solution(classify_all(golden_problem))
        assert ms.per_row == pytest.approx(GOLDEN["per_row_max"], abs=1e-4)

    def test_golden_overall(self, golden_problem):
        ms = max_solution(classify_all(golden_problem))
        assert ms.overall == pytest.approx(GOLDEN["x_max"], abs=1e-4)

    def test_single_row_overall_equals_row(self):
        prob = tiny([[0.8969, 0.8403, 0.3]], [0.8657])
        ms = max_solution(classify_all(prob))
        assert np.array_equal(ms.overall, ms.per_row[0])

    def test_identical_rows_identical_maxima(self):
        b = np.max(wpm(np.array([0.6, 0.4]), np.array([0.5, 0.2]), P))
        prob = tiny([[0.6, 0.4], [0.6, 0.4]], [b, b])
        ms = max_solution(classify_all(prob))
        assert np.array_equal(ms.per_row[0], ms.per_row[1])
        assert np.array_equal(ms.overall, ms.per_row[0])

    def test_idempotent_fixed_point(self):
        prob = tiny([[0.37]], [0.37])
        ms = max_solution(classify_all(prob))
        assert ms.overall[0] == pytest.approx(0.37, abs=1e-9)

    def test_blocking_row_raises(self):
        prob = tiny([[1.0], [0.5]], [0.5, 0.5])
        with pytest.raises(InfeasibleRowError, match=r"row 0 .*blocking columns \[0\]"):
            max_solution(classify_all(prob))

    def test_row_maxima_reconstruct_targets(self):
        for seed in range(40):
            prob = structure_instance(seed + 100_000)
            ms = max_solution(classify_all(prob))
            for i in range(prob.m):
                value = np.max(wpm(prob.A[i], ms.per_row[i], prob.params))
                assert value == pytest.approx(prob.b[i], abs=1e-9)


class TestMinimalSolutionRow:
    def test_golden_row_minimal_points(self, golden_problem):
        point = minimal_solution_row(golden_problem, 0, 1)
        expected = np.zeros(7)
        expected[1] = 0.7552
        assert point == pytest.approx(expected, abs=1e-4)

        point = minimal_solution_row(golden_problem, 0, 2)
        expected = np.zeros(7)
        expected[2] = 0.9341
        assert point == pytest.approx(expected, abs=1e-4)

    def test_inactive_column_rejected(self, golden_problem):
        with pytest.raises(InactiveColumnError, match="column 0"):
            minimal_solution_row(golden_problem, 0, 0)

    def test_support_matches_row_maximum(self, golden_problem):
        ms = max_solution(classify_all(golden_problem))
        for i, active in enumerate(GOLDEN["active"]):
            for j in active:
                point = minimal_solution_row(golden_problem, i, j)
                assert point[j] == ms.per_row[i, j]
                assert np.count_nonzero(point) == 1

    def test_row_satisfied_at_minimal_point(self, golden_problem):
        for i, active in enumerate(GOLDEN["active"]):
            for j in active:
                point = minimal_solution_row(golden_problem, i, j)
                value = np.max(wpm(golden_problem.A[i], point, P))
                assert value == pytest.approx(golden_problem.b[i], abs=1e-9)


class TestEnumerate:
    def test_golden_choice_space(self, golden_problem):
        cls = classify_all(golden_problem)
        assert choice_space_size(cls) == GOLDEN["choices_before"]
        candidates = enumerate_candidates(cls)
        assert len(candidates) == GOLDEN["choices_before"]

    def test_lexicographic_selector_order(self, golden_problem):
        cls = classify_all(golden_problem)
        candidates = enumerate_candidates(cls)
        expected = list(itertools.product(*GOLDEN["active"]))
        assert [cand.choice for cand in candidates] == expected

    def test_golden_feasible_candidates(self, golden_problem):
        cls = classify_all(golden_problem)
        distinct = feasible_candidates(enumerate_candidates(cls))
        by_choice = {cand.choice: cand.point for cand in distinct}
        assert set(by_choice) == {(1, 0, 4, 2, 3), (1, 0, 5, 2, 3)}
        assert by_choice[(1, 0, 5, 2, 3)] == pytest.approx(
            GOLDEN["candidate_points"][0], abs=1e-4
        )
        assert by_choice[(1, 0, 4, 2, 3)] == pytest.approx(
            GOLDEN["candidate_points"][1], abs=1e-4
        )

    def test_feasible_flag_matches_maximum(self, golden_problem):
        cls = classify_all(golden_problem)
        x_max = max_solution(cls).overall
        for cand in enumerate_candidates(cls):
            assert cand.feasible == bool(np.all(cand.point <= x_max + CLASSIFY_TOL))

    def test_budget_checked_before_expansion(self, golden_problem):
        cls = classify_all(golden_problem)
        with pytest.raises(EnumerationBudgetError) as excinfo:
            enumerate_candidates(cls, limit=23)
        assert excinfo.value.required == 24
        assert excinfo.value.limit == 23
        assert "24" in str(excinfo.value)

    def test_single_row_candidates_are_row_minimal(self):
        prob = tiny([[0.8969, 0.8403, 0.3]], [0.8657])
        cls = classify_all(prob)
        candidates = enumerate_candidates(cls)
        assert [cand.choice for cand in candidates] == [(0,), (1,)]
        for cand in candidates:
            assert cand.feasible
            expected = minimal_solution_row(prob, 0, cand.choice[0])
            assert np.array_equal(cand.point, expected)

    def test_infeasible_row_rejected(self):
        prob = tiny([[1.0], [0.5]], [0.5, 0.5])
        with pytest.raises(InfeasibleRowError):
            enumerate_candidates(classify_all(prob))

    def test_points_read_only(self, golden_problem):
        cls = classify_all(golden_problem)
        cand = enumerate_candidates(cls)[0]
        with pytest.raises(ValueError):
            cand.point[0] = 0.5


class TestCells:
    def test_feasible_candidates_are_solutions(self):
        for prob, cls in feasible_structure_instances(40, start=0):
            for cand in feasible_candidates(enumerate_candidates(cls)):
                member, residuals = check_membership(prob, cand.point)
                assert member, (prob.params, cand.choice, residuals)

    def test_cells_filled_with_solutions(self):
        rng = np.random.default_rng(2024)
        for prob, cls in feasible_structure_instances(15, start=300):
            x_max = max_solution(cls).overall
            for cand in feasible_candidates(enumerate_candidates(cls)):
                lo = np.minimum(cand.point, x_max)
                u = rng.uniform(size=(50, prob.n))
                points = lo + u * (x_max - lo)
                values = row_values(prob, points)
                assert np.all(np.abs(values - prob.b) <= 1e-6)

    def test_upward_perturbation_violates(self):
        delta = 1e-3
        bumped_total = 0
        for prob, cls in feasible_structure_instances(40, start=600):
            x_max = max_solution(cls).overall
            for j in range(prob.n):
                if x_max[j] + delta > 1.0:
                    continue
                bumped = x_max.copy()
                bumped[j] += delta
                bumped_total += 1
                member, residuals = check_membership(prob, bumped, tol=1e-12)
                assert not member
                assert max(residuals) > 1e-12
        assert bumped_total > 50

    def test_undominated_reductions_leave_solution_set(self):
        """Reducing an undominated lower corner exits every cell.

        A corner dominated by another feasible corner may survive a
        reduction (the dominating cell still contains the reduced point),
        so only undominated corners are required to lose membership.
        """
        delta = 1e-3
        for prob, cls in feasible_structure_instances(40, start=900):
            distinct = feasible_candidates(enumerate_candidates(cls))
            points = [cand.point for cand in distinct]
            for idx, point in enumerate(points):
                dominated = any(
                    k != idx and np.all(other <= point + 1e-12)
                    for k, other in enumerate(points)
                )
                if dominated:
                    continue
                for j in range(prob.n):
                    if point[j] <= 1e-9:
                        continue
                    reduced = point.copy()
                    reduced[j] = max(reduced[j] - delta, 0.0)
                    covered = any(
                        np.all(other <= reduced + 1e-12) for other in points
                    )
                    assert not covered
                    if point[j] >= delta:
                        member, _ = check_membership(prob, reduced, tol=1e-10)
                        assert not member


class TestUnionCompleteness:
    def test_near_solutions_respect_cell_bounds(self):
        from wpmfre import GridSpec, grid_feasible_set

        density = {1: 1001, 2: 201, 3: 51, 4: 21}
        checked = 0
        seed = 1500
        while checked < 8:
            prob = structure_instance(seed)
            seed += 1
            spec = GridSpec(points_per_axis=density[prob.n])
            near = grid_feasible_set(prob, spec)
            if near.shape[0] == 0:
                continue
            checked += 1
            upper, lower = relaxed_union_bounds(prob, spec.residual_tolerance)
            assert np.all(near <= upper + 1e-9)
            for i in range(prob.m):
                supported = near >= lower[i] - 1e-9
                assert np.all(np.any(supported, axis=1))
