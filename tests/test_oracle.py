"""Brute-force oracle tests and solver-vs-oracle differential checks."""

import ast
import pathlib

import numpy as np
import pytest
from conftest import GOLDEN, structure_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from wpmfre import (
    DimensionError,
    DomainError,
    GridSpec,
    OracleBudgetError,
    Problem,
    WpmParams,
    check_membership,
    choice_space_size,
    classify_all,
    enumerate_candidates,
    exhaustive_candidates,
    grid_feasible_set,
    max_solution,
    oracle_feasible,
    wpm,
)
import wpmfre.oracle
from wpmfre.optimize import decide_feasibility

P = WpmParams(0.75, 3.0)


def tiny(A, b, params=P):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return Problem(A, np.asarray(b, dtype=float), np.zeros(A.shape[1]), params)


def feasible(problem):
    return decide_feasibility(problem)[-1] is None


def conflicting_rows_problem():
    a = 0.7
    return tiny([[a], [a]], [wpm(a, 0.3, P), wpm(a, 0.6, P)])


class TestIndependence:
    # what the oracle may take from the package: the errors, the problem
    # container, and the operator with its tolerances (None: any name)
    ALLOWED = {
        "errors": None,
        "model": {"Problem"},
        "wpm": {"wpm", "CLASSIFY_TOL", "FEASIBILITY_TOL"},
    }

    def test_imports_only_the_definitions(self):
        source = pathlib.Path(wpmfre.oracle.__file__).read_text(encoding="utf-8")
        imported = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "wpmfre" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "wpmfre"
                if node.level:
                    assert node.level == 1, ast.dump(node)
                    imported.setdefault(node.module, set()).update(a.name for a in node.names)
        assert set(imported) <= set(self.ALLOWED)
        for module, names in imported.items():
            allowed = self.ALLOWED[module]
            assert allowed is None or names <= allowed, (module, names - allowed)
        assert imported["model"] == {"Problem"}


class TestCheckMembership:
    def test_golden_maximum_is_member(self, golden_problem):
        x_max = max_solution(classify_all(golden_problem)).overall
        member, residuals = check_membership(golden_problem, x_max)
        assert member
        assert np.all(residuals <= 1e-6)

    def test_zero_vector_residual(self, golden_problem):
        member, residuals = check_membership(golden_problem, np.zeros(7))
        assert not member
        expected = abs(0.75 ** (1.0 / 3.0) * 0.8969 - 0.8657)
        assert residuals[0] == pytest.approx(expected, abs=1e-12)

    def test_shape_and_domain_checks(self, golden_problem):
        with pytest.raises(DimensionError):
            check_membership(golden_problem, np.zeros(6))
        bad = np.zeros(7)
        bad[3] = 1.5
        with pytest.raises(DomainError):
            check_membership(golden_problem, bad)

    def test_single_entry_fixed_point(self):
        prob = tiny([[0.4]], [0.4])
        assert check_membership(prob, np.array([0.4]))[0]
        assert not check_membership(prob, np.array([0.3]))[0]
        assert not check_membership(prob, np.array([0.5]))[0]

    def test_tolerance_parameter(self):
        prob = tiny([[0.4]], [0.4])
        member, residuals = check_membership(prob, np.array([0.3]), tol=0.1)
        assert member
        assert residuals[0] == pytest.approx(0.4 - wpm(0.4, 0.3, P), abs=1e-12)


#: A coordinate anywhere in the unit box, with the endpoints drawn often.
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def membership_cases(draw):
    """A problem of shape 1x1, 1xn or mx1, a point, and a tolerance."""
    size = st.integers(1, 6)
    m, n = draw(st.one_of(st.tuples(st.just(1), size), st.tuples(size, st.just(1))))
    w = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    p = draw(st.floats(0.02, 200.0))
    A = np.array(draw(st.lists(UNIT, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(UNIT, min_size=m, max_size=m)))
    x = np.array(draw(st.lists(UNIT, min_size=n, max_size=n)))
    tol = draw(st.sampled_from([1e-6, 0.1, 0.5]))
    return Problem(A, b, np.zeros(n), WpmParams(w, p)), x, tol


class TestBroadcastMembership:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(membership_cases())
    def test_matches_entrywise_scalar_evaluation(self, case):
        prob, x, tol = case
        residuals = np.array(
            [
                abs(
                    max(
                        wpm(float(prob.A[i, j]), float(x[j]), prob.params)
                        for j in range(prob.n)
                    )
                    - float(prob.b[i])
                )
                for i in range(prob.m)
            ]
        )
        member, got = check_membership(prob, x, tol)
        assert got.shape == (prob.m,)
        assert np.max(np.abs(got - residuals)) <= 1e-15
        assert member == bool(np.all(residuals <= tol))


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec(points_per_axis=21)
        assert spec.residual_tolerance == 1e-3
        assert spec.max_evaluations == 10**7

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(points_per_axis=1)
        with pytest.raises(DomainError):
            GridSpec(points_per_axis=11, residual_tolerance=0.0)


class TestGridFeasibleSet:
    def test_single_entry_matches_direct_filter(self):
        prob = tiny([[0.8969]], [0.8657])
        spec = GridSpec(points_per_axis=101, residual_tolerance=1e-2)
        found = grid_feasible_set(prob, spec)
        levels = np.linspace(0.0, 1.0, 101)
        expected = [
            x for x in levels if abs(wpm(0.8969, float(x), P) - 0.8657) <= 1e-2
        ]
        assert found.shape == (len(expected), 1)
        assert np.array_equal(found[:, 0], expected)
        assert len(expected) > 0

    def test_two_columns_match_direct_filter(self):
        prob = tiny([[0.8969, 0.8403]], [0.8657])
        spec = GridSpec(points_per_axis=101, residual_tolerance=1e-2)
        found = grid_feasible_set(prob, spec)
        levels = np.linspace(0.0, 1.0, 101)
        expected = []
        for x0 in levels:
            for x1 in levels:
                value = max(wpm(0.8969, float(x0), P), wpm(0.8403, float(x1), P))
                if abs(value - 0.8657) <= 1e-2:
                    expected.append((x0, x1))
        assert found.shape == (len(expected), 2)
        assert np.allclose(found, expected, rtol=0.0, atol=0.0)

    def test_unreachable_target_yields_empty_set(self):
        prob = tiny([[1.0]], [0.0])
        found = grid_feasible_set(prob, GridSpec(points_per_axis=51))
        assert found.shape == (0, 1)

    def test_budget_guard(self, golden_problem):
        spec = GridSpec(points_per_axis=101)
        with pytest.raises(OracleBudgetError) as excinfo:
            grid_feasible_set(golden_problem, spec)
        assert excinfo.value.required == 101**7
        assert excinfo.value.limit == 10**7


class TestExhaustiveCandidates:
    def test_golden_matches_lattice_enumeration(self, golden_problem):
        slow = exhaustive_candidates(golden_problem)
        fast = enumerate_candidates(classify_all(golden_problem))
        assert len(slow) == len(fast) == GOLDEN["choices_before"]
        for s, f in zip(slow, fast):
            assert s.choice == f.choice
            assert s.point == pytest.approx(f.point, abs=1e-10)
            assert s.feasible == f.feasible

    def test_single_row(self):
        prob = tiny([[0.8969, 0.8403, 0.3]], [0.8657])
        candidates = exhaustive_candidates(prob)
        assert [cand.choice for cand in candidates] == [(0,), (1,)]
        assert all(cand.feasible for cand in candidates)

    def test_infeasible_rows_yield_no_candidates(self):
        assert exhaustive_candidates(tiny([[1.0]], [0.5])) == []
        assert exhaustive_candidates(tiny([[0.1]], [0.99])) == []

    def test_budget_guard(self, golden_problem):
        with pytest.raises(OracleBudgetError) as excinfo:
            exhaustive_candidates(golden_problem, limit=23)
        assert excinfo.value.required == 24
        assert excinfo.value.limit == 23


class TestDifferential:
    def test_feasibility_verdicts_agree(self):
        verdicts = []
        for seed in range(200):
            prob = structure_instance(seed + 7000)
            slow = oracle_feasible(prob)
            fast = feasible(prob)
            assert slow == fast, seed
            verdicts.append(slow)
        assert any(verdicts)

    def test_golden_and_degenerate_verdicts(self, golden_problem):
        assert oracle_feasible(golden_problem)
        bumped = golden_problem.A.copy()
        bumped[0, 0] = 0.99
        blocked = golden_problem.with_matrix(bumped)
        assert not oracle_feasible(blocked)
        assert not feasible(blocked)
        conflict = conflicting_rows_problem()
        assert not oracle_feasible(conflict)
        assert not feasible(conflict)

    def test_candidates_agree_on_random_instances(self):
        checked = 0
        seed = 7500
        while checked < 40:
            prob = structure_instance(seed)
            seed += 1
            if choice_space_size(classify_all(prob)) > 128:
                continue
            checked += 1
            slow = exhaustive_candidates(prob)
            fast = enumerate_candidates(classify_all(prob))
            assert [s.choice for s in slow] == [f.choice for f in fast]
            for s, f in zip(slow, fast):
                assert s.point == pytest.approx(f.point, abs=1e-9)
                assert s.feasible == f.feasible
