"""Problem container, column classification, and feasibility tests."""

import numpy as np
import pytest
from conftest import GOLDEN, structure_instance

from wpmfre import (
    DimensionError,
    DomainError,
    Problem,
    WpmParams,
    classify_all,
    classify_row,
    oracle_feasible,
    row_composition,
    wpm,
)
from wpmfre.optimize import decide_feasibility

P = WpmParams(0.75, 3.0)


def feasible(problem):
    """The whole-system verdict: no infeasible row and ``x_max`` solves the system."""
    return decide_feasibility(problem)[-1] is None


def tiny(A, b, c=None, params=P):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if c is None:
        c = np.zeros(A.shape[1])
    return Problem(A, np.asarray(b, dtype=float), c, params)


class TestProblemValidation:
    def test_matrix_entry_out_of_range_named(self):
        A = [[0.1, 0.2], [0.3, 1.2]]
        with pytest.raises(DomainError, match=r"A\[1,1\]"):
            tiny(A, [0.5, 0.5])

    def test_target_out_of_range_named(self):
        with pytest.raises(DomainError, match=r"b\[1\]"):
            tiny([[0.1], [0.2]], [0.5, -0.1])

    def test_cost_must_be_finite(self):
        with pytest.raises(DomainError, match=r"c\[0\]"):
            tiny([[0.5]], [0.5], c=[float("nan")])

    def test_costs_any_sign_accepted(self):
        prob = tiny([[0.5]], [0.5], c=[-123.0])
        assert prob.c[0] == -123.0

    def test_shape_mismatches(self):
        with pytest.raises(DimensionError):
            tiny([[0.1, 0.2]], [0.5, 0.6])
        with pytest.raises(DimensionError):
            tiny([[0.1, 0.2]], [0.5], c=[1.0])
        with pytest.raises(DimensionError):
            Problem(np.zeros((0, 2)), np.zeros(0), np.zeros(2), P)
        with pytest.raises(DimensionError):
            Problem(np.array([0.1, 0.2]), np.array([0.5]), np.zeros(2), P)

    def test_arrays_copied_and_frozen(self):
        A = np.array([[0.5]])
        prob = tiny(A, [0.5])
        A[0, 0] = 0.9
        assert prob.A[0, 0] == 0.5
        with pytest.raises(ValueError):
            prob.A[0, 0] = 0.1

    def test_with_matrix_replaces_only_matrix(self):
        prob = tiny([[0.5, 0.4]], [0.5], c=[1.0, 2.0])
        other = prob.with_matrix(np.array([[0.5, 0.0]]))
        assert other.A[0, 1] == 0.0
        assert np.array_equal(other.b, prob.b)
        assert np.array_equal(other.c, prob.c)
        assert prob.A[0, 1] == 0.4


class TestClassification:
    def test_reference_sets(self, golden_problem):
        for i, cls in enumerate(classify_all(golden_problem)):
            assert cls.row == i
            assert cls.blocking == ()
            assert cls.active == GOLDEN["active"][i]
            assert cls.inert == GOLDEN["inert"][i]

    def test_masks_partition_and_rows_are_views(self, golden_problem):
        classification = classify_all(golden_problem)
        masks = (classification.blocking, classification.inert, classification.active)
        assert np.array_equal(sum(mask.astype(int) for mask in masks), np.ones((5, 7)))
        assert not any(mask.flags.writeable for mask in masks)
        assert len(classification) == golden_problem.m
        assert classification[-1] == classification[4] == classify_row(golden_problem, 4)
        assert [cls.inert for cls in classification] == GOLDEN["inert"]
        with pytest.raises(IndexError):
            classification[5]

    def test_all_entries_equal_target_all_active(self):
        prob = tiny([[0.6, 0.6, 0.6]], [0.6])
        cls = classify_row(prob, 0)
        assert cls.active == (0, 1, 2)
        assert cls.blocking == () and cls.inert == ()

    def test_blocking_threshold_tie_is_active(self):
        target = 0.5
        edge = target / P.blocking_scale
        prob = tiny([[edge]], [target])
        assert classify_row(prob, 0).active == (0,)

    def test_reachability_threshold_tie_is_active(self):
        target = 0.9
        reach = ((target**3 + P.w - 1.0) / P.w) ** (1.0 / 3.0)
        prob = tiny([[reach]], [target])
        assert classify_row(prob, 0).active == (0,)

    def test_partition_property(self):
        for seed in range(1000):
            prob = structure_instance(seed + 50_000)
            for cls in classify_all(prob):
                groups = cls.blocking + cls.inert + cls.active
                assert sorted(groups) == list(range(prob.n))

    def test_inert_columns_never_reach_target(self):
        # a column classified inert stays below its row target on a 1001-point sweep
        grid = np.linspace(0.0, 1.0, 1001)
        for seed in range(80):
            prob = structure_instance(seed + 60_000)
            for cls in classify_all(prob):
                for j in cls.inert:
                    values = wpm(float(prob.A[cls.row, j]), grid, prob.params)
                    assert np.max(values) < prob.b[cls.row]

    def test_blocking_columns_overshoot_at_zero(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(300):
            A = rng.uniform(size=(2, 3))
            b = rng.uniform(size=2)
            prob = Problem(A, b, np.zeros(3), P)
            for cls in classify_all(prob):
                for j in cls.blocking:
                    found += 1
                    assert wpm(float(A[cls.row, j]), 0.0, P) > b[cls.row]
        assert found > 0  # the sweep must actually exercise blocking columns


class TestRowFeasible:
    def test_reference_rows_feasible(self, golden_problem):
        assert classify_all(golden_problem).infeasible == ()

    def test_blocking_entry_kills_row(self):
        prob = tiny([[1.0]], [0.5])
        cls = classify_row(prob, 0)
        assert cls.blocking == (0,)
        assert classify_all(prob).infeasible == (0,)
        # direct evidence: the composed value exceeds the target everywhere
        sampled = wpm(1.0, np.linspace(0.0, 1.0, 512), P)
        assert np.min(sampled) > 0.5

    def test_zero_row_zero_target_feasible(self):
        prob = tiny([[0.0]], [0.0])
        assert classify_all(prob).infeasible == ()
        assert classify_row(prob, 0).active == (0,)

    def test_no_active_column_kills_row(self):
        prob = tiny([[0.1, 0.05]], [0.99])
        assert classify_row(prob, 0).active == ()
        assert classify_all(prob).infeasible == (0,)


def conflicting_rows_problem() -> Problem:
    """Two rows over one column demanding different exact levels."""
    b1 = wpm(0.7, 0.3, P)
    b2 = wpm(0.7, 0.6, P)
    return Problem(
        np.array([[0.7], [0.7]]), np.array([b1, b2]), np.zeros(1), P
    )


class TestProblemFeasible:
    def test_reference_feasible(self, golden_problem):
        assert feasible(golden_problem)

    def test_blocking_entry_infeasible(self, golden_problem):
        A = golden_problem.A.copy()
        A[0, 0] = 0.99  # above the first row's blocking threshold
        assert not feasible(golden_problem.with_matrix(A))

    def test_conflicting_rows_infeasible(self):
        prob = conflicting_rows_problem()
        assert classify_all(prob).infeasible == ()
        assert not feasible(prob)
        # no point on a fine sweep satisfies both rows at once
        grid = np.linspace(0.0, 1.0, 10_001)
        values = wpm(0.7, grid, P)
        worst = np.maximum(np.abs(values - prob.b[0]), np.abs(values - prob.b[1]))
        assert np.min(worst) > 1e-3

    def test_agrees_with_oracle_on_random_instances(self):
        for seed in range(60):
            prob = structure_instance(seed + 70_000)
            assert feasible(prob) == oracle_feasible(prob) == True  # noqa: E712

    def test_agrees_with_oracle_on_mutated_instances(self):
        # raising one target above every column's reach flips both verdicts
        rng = np.random.default_rng(9)
        flips = 0
        for seed in range(60):
            prob = structure_instance(seed + 80_000)
            b = prob.b.copy()
            i = int(rng.integers(prob.m))
            b[i] = 1.0
            mutated = Problem(prob.A, b, prob.c, prob.params)
            ours = feasible(mutated)
            oracle = oracle_feasible(mutated)
            assert ours == oracle
            flips += ours != feasible(prob)
        assert flips > 0

    def test_reconstruction_at_maximum(self, golden_problem):
        from wpmfre import max_solution

        x_max = max_solution(golden_problem, classify_all(golden_problem)).overall
        for i in range(golden_problem.m):
            value = row_composition(
                golden_problem.A[i], x_max, golden_problem.params
            )
            assert value == pytest.approx(float(golden_problem.b[i]), abs=1e-6)
