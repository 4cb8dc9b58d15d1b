"""Candidate scan, assembly and end-to-end solver tests."""

import importlib
from collections import Counter

import numpy as np
import pytest
from conftest import DATA_DIR, GOLDEN, GOLDEN_PATH, structure_instance

import wpmfre.lattice
import wpmfre.model
import wpmfre.optimize
import wpmfre.simplify
from wpmfre import (
    CLASSIFY_TOL,
    STATUS_BUDGET_EXCEEDED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    Candidates,
    FEASIBILITY_TOL,
    InfeasibleProblemError,
    MembershipError,
    Problem,
    WpmParams,
    assemble_optimum,
    check_membership,
    choice_space_size,
    classify_all,
    enumerate_candidates,
    feasible_candidates,
    generate_instance,
    load_problem,
    max_solution,
    problem_dumps,
    solve,
    solve_z2,
    wpm,
)
from wpmfre.cli import main
from wpmfre.optimize import decide_feasibility

P = WpmParams(0.75, 3.0)

#: The kernel module; the package root's ``wpm`` attribute is the operator.
WPM_MODULE = importlib.import_module("wpmfre.wpm")


def tiny(A, b, c=None, params=P):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if c is None:
        c = np.zeros(A.shape[1])
    return Problem(A, np.asarray(b, dtype=float), np.asarray(c, dtype=float), params)


def small_instances(count, start=0, cap=256):
    out = []
    seed = start
    while len(out) < count:
        prob = structure_instance(seed)
        seed += 1
        if choice_space_size(classify_all(prob)) <= cap:
            out.append(prob)
    return out


def candidate_arrays(choices, points, feasible):
    keys = [np.asarray(point, dtype=float).tobytes() for point in points]
    corners = list(dict.fromkeys(keys))
    return Candidates(
        choices=np.array(choices, dtype=np.intp),
        points=np.array(points, dtype=float),
        feasible=np.array(feasible, dtype=bool),
        first=np.array([keys.index(key) for key in corners], dtype=np.intp),
        corner=np.array([corners.index(key) for key in keys], dtype=np.intp),
    )


def conflicting_rows_problem():
    a = 0.7
    return tiny([[a], [a]], [wpm(a, 0.3, P), wpm(a, 0.6, P)])


class TestSolveZ2:
    def golden_distinct(self, golden_problem):
        cls = classify_all(golden_problem)
        return feasible_candidates(enumerate_candidates(cls))

    def test_golden_winner(self, golden_problem):
        c_positive = np.maximum(golden_problem.c, 0.0)
        choice, point = solve_z2(self.golden_distinct(golden_problem), c_positive)
        assert choice == GOLDEN["e_star"]
        assert point == pytest.approx(GOLDEN["candidate_points"][0], abs=1e-4)

    def test_tie_breaks_to_first_selector(self, golden_problem):
        distinct = self.golden_distinct(golden_problem)
        choice, _ = solve_z2(distinct, np.zeros(golden_problem.n))
        assert choice == (1, 0, 4, 2, 3)

    def test_no_feasible_candidates_rejected(self):
        empty = candidate_arrays(np.empty((0, 1)), np.empty((0, 2)), [])
        with pytest.raises(InfeasibleProblemError):
            solve_z2(empty, np.zeros(2))
        shut_out = candidate_arrays([(0,)], [[0.4, 0.0]], [False])
        with pytest.raises(InfeasibleProblemError):
            solve_z2(shut_out, np.zeros(2))

    def test_single_candidate_wins(self):
        only = candidate_arrays([(1,)], [[0.0, 0.6]], [True])
        choice, point = solve_z2(only, np.array([5.0, 5.0]))
        assert choice == (1,)
        assert np.array_equal(point, only[0].point)

    def test_first_of_equal_costs_wins(self):
        cands = candidate_arrays(
            [(0, 1), (1, 0), (1, 1), (0, 0)],
            [[0.1, 0.3], [0.3, 0.1], [0.0, 0.2], [0.2, 0.2]],
            [True, True, False, True],
        )
        choice, point = solve_z2(cands, np.array([1.0, 1.0]))
        assert choice == (0, 1)
        assert np.array_equal(point, [0.1, 0.3])
        choice, _ = solve_z2(cands, np.array([0.0, 1.0]))
        assert choice == (1, 0)


class TestAssembleOptimum:
    def test_golden_assembly(self, golden_problem):
        x_star = assemble_optimum(
            GOLDEN["x_max"], GOLDEN["candidate_points"][0], golden_problem.c
        )
        assert x_star == pytest.approx(GOLDEN["x_star"], abs=1e-4)

    def test_sign_routing(self):
        x_max = np.array([0.9, 0.8, 0.7])
        bottom = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(
            assemble_optimum(x_max, bottom, np.array([-1.0, -2.0, -3.0])), x_max
        )
        assert np.array_equal(
            assemble_optimum(x_max, bottom, np.array([1.0, 2.0, 3.0])), bottom
        )
        # A zero coefficient is indifferent; the bottom corner is used.
        assert np.array_equal(
            assemble_optimum(x_max, bottom, np.zeros(3)), bottom
        )


class TestSolveGolden:
    def test_full_pipeline(self, golden_problem):
        report = solve(golden_problem)
        assert report.status == STATUS_OPTIMAL
        assert report.feasible
        assert report.x_max == pytest.approx(GOLDEN["x_max"], abs=1e-4)
        assert report.x_star == pytest.approx(GOLDEN["x_star"], abs=1e-4)
        assert report.e_star == GOLDEN["e_star"]
        assert report.z_star == pytest.approx(GOLDEN["z_star"], abs=1e-3)
        assert report.z_star == pytest.approx(GOLDEN["z_star_frozen"], abs=1e-9)
        assert report.z_star == pytest.approx(
            float(golden_problem.c @ report.x_star), abs=0.0
        )
        assert report.candidates_total == 2
        assert report.candidates_feasible == 2
        assert report.simplification is not None
        assert report.simplification.choices_before == GOLDEN["choices_before"]
        assert report.simplification.choices_after == GOLDEN["choices_after"]
        assert report.diagnostic is None
        assert report.timing_seconds >= 0.0
        assert not report.x_star.flags.writeable

    def test_simplification_does_not_change_optimum(self, golden_problem):
        with_rules = solve(golden_problem)
        without = solve(golden_problem, simplify=False)
        assert without.status == STATUS_OPTIMAL
        assert without.candidates_total == GOLDEN["choices_before"]
        assert without.candidates_feasible == 2
        assert without.simplification is None
        assert without.e_star == with_rules.e_star
        assert abs(without.z_star - with_rules.z_star) <= 1e-9


class TestSolveDegenerate:
    def test_blocking_row_report(self):
        report = solve(tiny([[1.0], [0.5]], [0.5, 0.5]))
        assert report.status == STATUS_INFEASIBLE
        assert not report.feasible
        assert report.x_star is None
        assert report.x_max is None
        assert report.diagnostic["reason"] == "infeasible_row"
        assert report.diagnostic["row"] == 0
        assert report.diagnostic["blocking_columns"] == [0]

    def test_conflicting_rows_report(self):
        report = solve(conflicting_rows_problem())
        assert report.status == STATUS_INFEASIBLE
        assert not report.feasible
        assert report.x_max is not None
        assert report.diagnostic["reason"] == "maximum_point_not_solution"
        assert len(report.diagnostic["residuals"]) == 2
        assert report.diagnostic["worst_row"] in (0, 1)

    @pytest.mark.parametrize("simplify", [True, False])
    def test_no_corner_under_x_max_report(self, simplify):
        prob = generate_instance(3, 4, WpmParams(0.5, 10.0), 0)
        report = solve(prob, simplify=simplify)
        assert report.status == STATUS_INFEASIBLE
        # x_max is a certified member; only the corners fail to fit
        assert report.feasible
        assert report.x_star is None
        assert report.z_star is None
        assert report.candidates is None
        assert report.diagnostic == {"reason": "no_corner_under_x_max", "rows": [1]}
        assert (report.simplification is not None) == simplify
        # x_max passes membership, so the verdict comes after enumeration
        assert check_membership(prob, report.x_max)[0]
        cls = classify_all(prob)
        ms = max_solution(cls)
        for i in range(prob.m):
            active = list(cls[i].active)
            fits = ms.per_row[i, active] <= ms.overall[active] + CLASSIFY_TOL
            assert fits.any() == (i not in report.diagnostic["rows"])

    def test_budget_exceeded_report(self, golden_problem):
        report = solve(golden_problem, simplify=False, limit=5)
        assert report.status == STATUS_BUDGET_EXCEEDED
        assert report.feasible
        assert report.x_star is None
        assert report.z_star is None
        assert report.candidates is None
        assert report.simplification is None
        assert report.diagnostic == {
            "reason": "choice_space_exceeds_limit",
            "required": 24,
            "limit": 5,
        }

    def test_simplification_can_rescue_budget(self, golden_problem):
        tight = solve(golden_problem, simplify=True, limit=2)
        assert tight.status == STATUS_OPTIMAL
        assert tight.z_star == pytest.approx(GOLDEN["z_star_frozen"], abs=1e-9)

    def test_budget_after_simplification_still_reported(self, golden_problem):
        report = solve(golden_problem, simplify=True, limit=1)
        assert report.status == STATUS_BUDGET_EXCEEDED
        assert report.diagnostic["required"] == 2
        assert report.simplification is not None


class TestDecideFeasibility:
    def test_golden_feasible(self, golden_problem):
        cls, x_max, residuals, diagnostic = decide_feasibility(golden_problem)
        assert diagnostic is None
        assert list(cls) == list(classify_all(golden_problem))
        assert np.array_equal(x_max, max_solution(cls).overall)
        assert np.array_equal(residuals, check_membership(golden_problem, x_max)[1])

    @pytest.mark.parametrize(
        "make", [lambda: tiny([[1.0], [0.5]], [0.5, 0.5]), conflicting_rows_problem]
    )
    def test_infeasible_verdicts_match_solve(self, make):
        prob = make()
        _, x_max, residuals, diagnostic = decide_feasibility(prob)
        report = solve(prob)
        assert diagnostic == report.diagnostic
        assert (x_max is None) == (residuals is None) == (report.x_max is None)


class TestWorkCount:
    """``solve`` classifies, checks membership and sorts its corners a
    fixed number of times.

    Neither ``solve`` nor the feasibility decision calls the scalar
    inverse: every level comes from one array pass.  A feasible ``solve``
    reads the classification masks and builds no per-row tuple view.
    """

    @staticmethod
    def count(monkeypatch, sites):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in sites:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("simplify, classify_calls", [(True, 1), (False, 1)])
    @pytest.mark.parametrize(
        "make",
        [lambda: load_problem(str(GOLDEN_PATH)), lambda: generate_instance(12, 12, P, 0)],
        ids=["golden", "generated-12x12"],
    )
    def test_calls_per_solve(self, monkeypatch, make, simplify, classify_calls):
        prob = make()
        calls = self.count(
            monkeypatch,
            [
                (wpmfre.optimize, "classify_all"),
                (wpmfre.optimize, "check_membership"),
                (wpmfre.lattice, "wpm_inverse"),
                (WPM_MODULE, "wpm_inverse"),
                (wpmfre.model, "RowClassification"),
            ],
        )
        report = solve(prob, simplify=simplify)
        assert report.status == STATUS_OPTIMAL
        assert calls == {"classify_all": classify_calls, "check_membership": 2}
        assert calls["wpm_inverse"] == calls["RowClassification"] == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: load_problem(str(GOLDEN_PATH)),
            lambda: generate_instance(40, 40, P, 3),
            lambda: generate_instance(3, 4, WpmParams(0.5, 10.0), 0),
            conflicting_rows_problem,
        ],
        ids=["golden", "generated-40x40", "large-p", "conflicting-rows"],
    )
    def test_feasibility_never_inverts_an_entry(self, monkeypatch, make):
        prob = make()
        calls = self.count(
            monkeypatch, [(wpmfre.lattice, "wpm_inverse"), (WPM_MODULE, "wpm_inverse")]
        )
        decide_feasibility(prob)
        solve(prob)
        assert calls["wpm_inverse"] == 0

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["solve", "--no-simplify"], ["simplify"], ["feasibility"]],
        ids=["solve", "solve-no-simplify", "simplify", "feasibility"],
    )
    @pytest.mark.parametrize(
        "make",
        [lambda: load_problem(str(GOLDEN_PATH)), lambda: generate_instance(12, 12, P, 0)],
        ids=["golden", "generated-12x12"],
    )
    def test_two_matrix_power_passes_per_command(self, monkeypatch, tmp_path, make, command):
        # one kernel pass: the levels' A**p and their 1/p-th root
        path = tmp_path / "problem.json"
        path.write_text(problem_dumps(make()))
        power = np.float_power
        matrix_calls = []

        def counted(*args, **kwargs):
            if any(np.ndim(arg) == 2 for arg in args):
                matrix_calls.append(args)
            return power(*args, **kwargs)

        monkeypatch.setattr(np, "float_power", counted)
        assert main([command[0], str(path), *command[1:]]) == 0
        assert len(matrix_calls) == 2

    @pytest.mark.parametrize("flags", [[], ["--no-simplify"]], ids=["simplify", "no-simplify"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: load_problem(str(GOLDEN_PATH)),
            lambda: generate_instance(12, 12, P, 0),
            lambda: tiny(np.full((6, 6), 0.6), np.full(6, 0.6), np.linspace(-1, 1, 6)),
        ],
        ids=["golden", "generated-12x12", "degenerate-6x6"],
    )
    def test_one_corner_sort_per_solve(self, monkeypatch, tmp_path, make, flags):
        # enumeration finds the distinct corners; the scan and the writer reuse them
        path = tmp_path / "problem.json"
        path.write_text(problem_dumps(make()))
        calls = self.count(monkeypatch, [(np, "unique")])
        assert main(["solve", str(path), *flags]) == 0
        assert calls == {"unique": 1}


class TestSolveRandom:
    def test_corner_costs_never_beat_optimum(self):
        for prob in small_instances(40, start=4000):
            report = solve(prob)
            assert report.status == STATUS_OPTIMAL
            assert report.z_star <= float(prob.c @ report.x_max) + 1e-9
            for cand in report.candidates:
                if not cand.feasible:
                    continue
                corner = assemble_optimum(report.x_max, cand.point, prob.c)
                assert report.z_star <= float(prob.c @ corner) + 1e-9

    def test_cell_samples_never_beat_optimum(self):
        rng = np.random.default_rng(55)
        for prob in small_instances(15, start=4600):
            report = solve(prob)
            for cand in report.candidates:
                if not cand.feasible:
                    continue
                lo = np.minimum(cand.point, report.x_max)
                u = rng.uniform(size=(60, prob.n))
                points = lo + u * (report.x_max - lo)
                costs = points @ prob.c
                assert report.z_star <= np.min(costs) + 1e-9

    def test_simplification_invariant_objective(self):
        for prob in small_instances(40, start=5200):
            z_on = solve(prob).z_star
            z_off = solve(prob, simplify=False).z_star
            assert abs(z_on - z_off) <= 1e-9

    def test_optimum_is_a_solution(self):
        for prob in small_instances(25, start=5800):
            report = solve(prob)
            member, _ = check_membership(prob, report.x_star)
            assert member

    def test_deterministic_reports(self):
        prob = structure_instance(4321)
        first = solve(prob)
        second = solve(prob)
        assert first.status == second.status == STATUS_OPTIMAL
        assert np.array_equal(first.x_star, second.x_star)
        assert first.z_star == second.z_star
        assert first.e_star == second.e_star


class TestKnownFitToleranceFaults:
    """Wrong outcomes of the x-space ``CLASSIFY_TOL`` fit test (ROADMAP item 1)."""

    @pytest.mark.xfail(reason="ROADMAP item 1", raises=MembershipError)
    @pytest.mark.parametrize("simplify", [True, False])
    def test_small_p_level_fits_under_zero(self, simplify):
        # row 2's level 4.6e-12 "fits" under x_max[0] = 0; at p = 0.38 the
        # corner then moves rows 0 and 1 by more than FEASIBILITY_TOL
        A = [[0.36088841375619374], [0.8231263498807164], [0.0]]
        b = [0.04229023305858772, 0.09645674821702915, 1e-12]
        params = WpmParams(0.44159026456281786, 0.3812346585459428)
        solve(tiny(A, b, [0.3698135148470225], params), simplify=simplify)

    @staticmethod
    def level_over_x_max_instance():
        # ``b`` depends on the host's pow, so the instance is committed;
        # ``A``, ``c`` and the hidden point come from the seeded generator
        params, seed = WpmParams(0.8092285887681194, 2.856624331056311), 1860605695
        rng = np.random.default_rng(seed)
        rng.uniform(size=(14, 11))
        hidden = rng.uniform(size=11)
        prob = load_problem(str(DATA_DIR / "solve_mixed_121_219.json"))
        return prob, generate_instance(14, 11, params, seed), hidden

    def test_committed_instance_is_the_generated_one(self):
        prob, generated, hidden = self.level_over_x_max_instance()
        assert np.array_equal(prob.A, generated.A) and np.array_equal(prob.c, generated.c)
        assert prob.params == generated.params
        assert check_membership(prob, hidden, FEASIBILITY_TOL)[0]

    @pytest.mark.xfail(reason="ROADMAP item 1", raises=AssertionError)
    def test_level_just_over_x_max(self):
        # entry (5, 6)'s computed level is 1.92e-9 over x_max[6], so row 5
        # has no corner; in 60-digit arithmetic the excess is 2.1e-10
        prob, _, hidden = self.level_over_x_max_instance()
        report = solve(prob, limit=500)
        assert report.status == STATUS_OPTIMAL, report.diagnostic
        assert check_membership(prob, report.x_star, FEASIBILITY_TOL)[0]
        assert report.z_star <= prob.c @ hidden
