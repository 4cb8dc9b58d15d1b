"""Problem parsing, serialization round-trips, and instance generation."""

import json

import numpy as np
import pytest
from conftest import GOLDEN_PATH
from hypothesis import given, settings
from hypothesis import strategies as st

from wpmfre import (
    DimensionError,
    DomainError,
    ParameterDomainError,
    ProblemFormatError,
    WpmParams,
    check_membership,
    generate_instance,
    load_problem,
    parse_point,
    parse_problem,
    problem_dumps,
    problem_to_dict,
    report_dumps,
    report_to_dict,
    row_composition,
    solve,
    wpm,
)

P = WpmParams(0.75, 3.0)


def golden_text():
    return GOLDEN_PATH.read_text(encoding="utf-8")


class TestParseProblem:
    def test_golden_file(self):
        prob = load_problem(str(GOLDEN_PATH))
        assert prob.m == 5
        assert prob.n == 7
        assert prob.params.w == 0.75
        assert prob.params.p == 3.0
        assert prob.A[0, 1] == 0.8969
        assert prob.b[4] == 0.835
        assert prob.c[6] == 7.2926

    def test_invalid_json_names_position(self):
        with pytest.raises(ProblemFormatError, match="line 2"):
            parse_problem('{\n  "w": 0.75,,\n}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ProblemFormatError, match="object"):
            parse_problem("[1, 2, 3]")

    def test_missing_fields_listed(self):
        with pytest.raises(ProblemFormatError, match="p, c"):
            parse_problem('{"w": 0.75, "A": [[0.5]], "b": [0.5]}')

    def test_non_numeric_entry_named(self):
        doc = json.loads(golden_text())
        doc["A"][2][3] = "high"
        with pytest.raises(ProblemFormatError, match=r"A\[2\]\[3\]"):
            parse_problem(json.dumps(doc))

    def test_boolean_entry_rejected(self):
        doc = json.loads(golden_text())
        doc["b"][0] = True
        with pytest.raises(ProblemFormatError, match=r"b\[0\]"):
            parse_problem(json.dumps(doc))

    def test_out_of_range_entry_rejected(self):
        doc = json.loads(golden_text())
        doc["A"][1][1] = 1.2
        with pytest.raises(DomainError, match=r"A\[1,1\]"):
            parse_problem(json.dumps(doc))

    def test_ragged_matrix_rejected(self):
        doc = json.loads(golden_text())
        doc["A"][3] = doc["A"][3][:-1]
        with pytest.raises(DimensionError, match=r"\[3\]"):
            parse_problem(json.dumps(doc))

    def test_cross_dimension_mismatches_named(self):
        doc = json.loads(golden_text())
        doc["b"] = doc["b"][:-1]
        with pytest.raises(DimensionError, match='"b" has 4'):
            parse_problem(json.dumps(doc))
        doc = json.loads(golden_text())
        doc["c"] = doc["c"] + [0.0]
        with pytest.raises(DimensionError, match='"c" has 8'):
            parse_problem(json.dumps(doc))

    def test_invalid_weight_rejected(self):
        doc = json.loads(golden_text())
        doc["w"] = 1.5
        with pytest.raises(ParameterDomainError):
            parse_problem(json.dumps(doc))

    def test_empty_rows_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem('{"w": 0.5, "p": 2, "A": [], "b": [], "c": []}')


class TestRoundTrip:
    def test_problem_bits_survive(self):
        A = np.array([[0.1 + 0.2, 1.0 / 3.0], [0.9999999999999999, 5e-324]])
        prob = parse_problem(
            problem_dumps(
                parse_problem(
                    json.dumps(
                        {
                            "w": 0.123456789123456789,
                            "p": 2.7182818284590451,
                            "A": A.tolist(),
                            "b": [0.3333333333333333, 0.7071067811865476],
                            "c": [-7.658199999999999, 0.1],
                        }
                    )
                )
            )
        )
        assert prob.params.w == 0.123456789123456789
        assert prob.params.p == 2.7182818284590451
        assert np.array_equal(prob.A, A)
        assert prob.b[1] == 0.7071067811865476
        assert prob.c[0] == -7.658199999999999

    def test_golden_round_trip(self):
        prob = load_problem(str(GOLDEN_PATH))
        again = parse_problem(problem_dumps(prob))
        assert np.array_equal(prob.A, again.A)
        assert np.array_equal(prob.b, again.b)
        assert np.array_equal(prob.c, again.c)
        assert prob.params == again.params

    def test_problem_dict_fields(self):
        prob = load_problem(str(GOLDEN_PATH))
        doc = problem_to_dict(prob)
        assert sorted(doc) == ["A", "b", "c", "p", "w"]
        assert doc["A"][0][1] == 0.8969


class TestReportSerialization:
    def test_optimal_report_is_valid_json(self):
        prob = load_problem(str(GOLDEN_PATH))
        report = solve(prob)
        doc = json.loads(report_dumps(report))
        assert doc["status"] == "optimal"
        assert doc["feasible"] is True
        assert doc["z_star"] == report.z_star
        assert doc["e_star"] == [1, 0, 5, 2, 3]
        assert len(doc["x_star"]) == 7
        assert doc["simplification"]["choices_before"] == 24
        assert doc["simplification"]["choices_after"] == 2
        entry = doc["simplification"]["entries"][0]
        assert sorted(entry) == ["col", "old_value", "row", "rule"]
        assert doc["candidates"][0]["e"] == [1, 0, 4, 2, 3]
        assert isinstance(doc["candidates"][0]["feasible"], bool)

    def test_reports_deterministic_modulo_timing(self):
        prob = load_problem(str(GOLDEN_PATH))
        first = report_to_dict(solve(prob))
        second = report_to_dict(solve(prob))
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert json.dumps(first) == json.dumps(second)

    def test_budget_report_serializes_null_fields(self):
        prob = load_problem(str(GOLDEN_PATH))
        doc = json.loads(report_dumps(solve(prob, simplify=False, limit=5)))
        assert doc["status"] == "budget_exceeded"
        assert doc["x_star"] is None
        assert doc["candidates"] is None
        assert doc["diagnostic"]["required"] == 24


class TestParsePoint:
    def test_bare_array(self):
        point = parse_point("[0.25, 0.5]")
        assert np.array_equal(point, [0.25, 0.5])

    def test_object_form(self):
        point = parse_point('{"x": [0.25, 0.5]}')
        assert np.array_equal(point, [0.25, 0.5])

    def test_object_without_x_rejected(self):
        with pytest.raises(ProblemFormatError, match='"x"'):
            parse_point('{"point": [0.25]}')

    def test_non_numeric_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_point('[0.25, "mid"]')


class TestGenerateInstance:
    def test_deterministic_per_seed(self):
        one = generate_instance(3, 4, P, seed=99)
        two = generate_instance(3, 4, P, seed=99)
        other = generate_instance(3, 4, P, seed=100)
        assert np.array_equal(one.A, two.A)
        assert np.array_equal(one.b, two.b)
        assert np.array_equal(one.c, two.c)
        assert not np.array_equal(one.A, other.A)

    def test_hidden_point_solves_instance(self):
        for seed in (0, 7, 31):
            prob = generate_instance(3, 4, P, seed=seed)
            rng = np.random.default_rng(seed)
            rng.uniform(size=(3, 4))
            hidden = rng.uniform(size=4)
            member, residuals = check_membership(prob, hidden, tol=1e-9)
            assert member, residuals

    def test_smallest_instance_target_matches_operator(self):
        prob = generate_instance(1, 1, P, seed=5)
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(1, 1))[0, 0]
        hidden = rng.uniform(size=1)[0]
        assert prob.A[0, 0] == a
        assert prob.b[0] == wpm(a, hidden, P)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p=st.floats(0.02, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_targets_equal_row_by_row_composition(self, m, n, w, p, seed):
        params = WpmParams(w, p)
        prob = generate_instance(m, n, params, seed)
        rng = np.random.default_rng(seed)
        A = rng.uniform(size=(m, n))
        hidden = rng.uniform(size=n)
        b = np.array([row_composition(A[i], hidden, params) for i in range(m)])
        assert np.array_equal(prob.A, A)
        assert prob.b.tobytes() == b.tobytes()

    def test_generated_instances_are_feasible(self):
        for seed in range(25):
            prob = generate_instance(2, 3, P, seed=seed + 900)
            report = solve(prob)
            assert report.feasible

    def test_bad_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            generate_instance(0, 3, P, seed=1)
        with pytest.raises(DimensionError):
            generate_instance(3, 0, P, seed=1)

    def test_costs_span_both_signs(self):
        signs = set()
        for seed in range(40):
            prob = generate_instance(2, 4, P, seed=seed)
            signs.update(np.sign(prob.c).astype(int).tolist())
        assert {-1, 1} <= signs
