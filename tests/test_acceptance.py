"""Acceptance suite: eight end-to-end checks, one printed line each.

Every test prints "[criterion N] PASS|FAIL - <measured detail>" before its
assertion, so a run documents the measured values even for failing
criteria.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines for passing criteria as well.
"""

import time

import numpy as np
import pytest
from conftest import GOLDEN, GOLDEN_PATH, STRUCTURE_SEED_COUNT, structure_instance

from wpmfre import (
    EnumerationBudgetError,
    GridSpec,
    Problem,
    WpmParams,
    check_membership,
    classify_all,
    enumerate_candidates,
    feasible_candidates,
    grid_feasible_set,
    load_problem,
    max_solution,
    oracle_feasible,
    problem_dumps,
    simplify_pipeline,
    solve,
    wpm,
    wpm_inverse,
)
from wpmfre.cli import EXIT_BUDGET, main

DELTA = 1e-3
VIOLATION_FLOOR = 1e-12

_SUITE: dict[str, list] = {}


def structure_suite():
    """The 200 seeded random instances shared by the structure criteria.

    Built once per session: each entry carries the instance, its full
    candidate enumeration, the maximum solution, and a solve report.
    """
    if "entries" not in _SUITE:
        entries = []
        for seed in range(STRUCTURE_SEED_COUNT):
            prob = structure_instance(seed)
            cls = classify_all(prob)
            entries.append(
                {
                    "seed": seed,
                    "problem": prob,
                    "candidates": enumerate_candidates(cls),
                    "x_max": max_solution(cls).overall,
                    "report": solve(prob),
                }
            )
        _SUITE["entries"] = entries
    return _SUITE["entries"]


def emit(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


class TestAcceptance:
    def test_criterion_1_golden_classification(self, golden_problem):
        t0 = time.perf_counter()
        classifications = classify_all(golden_problem)
        elapsed = time.perf_counter() - t0
        # Published reference sets are 1-based; convert explicitly.
        active_rows = ({2, 3}, {1, 4}, {2, 5, 6}, {3}, {2, 4})
        inert_rows = (
            {1, 4, 5, 6, 7},
            {2, 3, 5, 6, 7},
            {1, 3, 4, 7},
            {1, 2, 4, 5, 6, 7},
            {1, 3, 5, 6, 7},
        )
        expected_active = [{j - 1 for j in row} for row in active_rows]
        expected_inert = [{j - 1 for j in row} for row in inert_rows]
        got_active = [set(cls.active) for cls in classifications]
        got_inert = [set(cls.inert) for cls in classifications]
        sets_ok = got_active == expected_active and got_inert == expected_inert
        ok = sets_ok and elapsed < 1.0
        emit(1, ok, f"set equality {sets_ok}, runtime {elapsed * 1e3:.2f} ms")
        assert ok

    def test_criterion_2_golden_maximum_solutions(self, golden_problem):
        ms = max_solution(classify_all(golden_problem))
        worst_rows = float(np.max(np.abs(ms.per_row - GOLDEN["per_row_max"])))
        worst_global = float(np.max(np.abs(ms.overall - GOLDEN["x_max"])))
        ok = worst_rows <= 1e-4 and worst_global <= 1e-4
        emit(
            2,
            ok,
            f"worst per-row deviation {worst_rows:.2e}, "
            f"global deviation {worst_global:.2e}",
        )
        assert ok

    def test_criterion_3_golden_simplification(self, golden_problem):
        simplified, log, _ = simplify_pipeline(golden_problem, classify_all(golden_problem))
        zeroed = {
            (i, j)
            for i in range(golden_problem.m)
            for j in range(golden_problem.n)
            if simplified.A[i, j] == 0.0 and golden_problem.A[i, j] != 0.0
        }
        # Published removal entries are 1-based; convert explicitly.
        removals = {(r - 1, c - 1) for r, c in {(1, 3), (2, 4), (3, 2), (5, 2)}}
        inert_cells = {
            (i, j) for i, row in enumerate(GOLDEN["inert"]) for j in row
        }
        expected = removals | inert_cells
        counts_ok = (
            log.choices_before == GOLDEN["choices_before"]
            and log.choices_after == GOLDEN["choices_after"]
        )
        ok = zeroed == expected and counts_ok
        emit(
            3,
            ok,
            f"zeroed cells match {zeroed == expected}, "
            f"choice count {log.choices_before} -> {log.choices_after}",
        )
        assert ok

    def test_criterion_4_golden_optimum(self, golden_problem):
        report = solve(golden_problem)
        plain = solve(golden_problem, simplify=False)
        x_dev = float(np.max(np.abs(report.x_star - GOLDEN["x_star"])))
        z_dev = abs(report.z_star - GOLDEN["z_star"])
        z_drift = abs(report.z_star - plain.z_star)
        ok = x_dev <= 1e-4 and z_dev <= 1e-3 and z_drift <= 1e-9
        emit(
            4,
            ok,
            f"x* deviation {x_dev:.2e}, z* deviation {z_dev:.2e}, "
            f"simplification drift {z_drift:.2e}",
        )
        assert ok

    def test_criterion_5_operator_properties(self):
        rng = np.random.default_rng(424242)
        samples = 10_000
        fail_internal = fail_idem = fail_mono = fail_round = 0
        for _ in range(samples):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            a = float(rng.uniform())
            x = float(rng.uniform())
            value = wpm(a, x, params)
            if not (min(a, x) - 1e-12 <= value <= max(a, x) + 1e-12):
                fail_internal += 1
            if abs(wpm(a, a, params) - a) > 1e-12:
                fail_idem += 1
            lo, hi = sorted((x, float(rng.uniform())))
            if hi - lo > 1e-9 and not wpm(a, lo, params) < wpm(a, hi, params):
                fail_mono += 1
            if abs(wpm(a, wpm_inverse(a, value, params), params) - value) > 1e-10:
                fail_round += 1
        ok = fail_internal == fail_idem == fail_mono == fail_round == 0
        emit(
            5,
            ok,
            f"failures over {samples} samples: internality {fail_internal}, "
            f"idempotence {fail_idem}, monotonicity {fail_mono}, "
            f"round-trip {fail_round}",
        )
        assert ok

    def test_criterion_6_structure_suite(self):
        t0 = time.perf_counter()
        entries = structure_suite()
        bad_agree, bad_member, bad_preserve, bad_grid = [], [], [], []
        for entry in entries:
            seed, prob = entry["seed"], entry["problem"]
            report = entry["report"]
            if oracle_feasible(prob) != report.feasible:
                bad_agree.append(seed)
            distinct = feasible_candidates(entry["candidates"])
            for point in [cand.point for cand in distinct] + [entry["x_max"]]:
                if not check_membership(prob, point, tol=1e-6)[0]:
                    bad_member.append(seed)
                    break
            simplified, _, _ = simplify_pipeline(prob, classify_all(prob))
            after = feasible_candidates(
                enumerate_candidates(classify_all(simplified))
            )
            before_pts = sorted(tuple(cand.point) for cand in distinct)
            after_pts = sorted(tuple(cand.point) for cand in after)
            if len(before_pts) != len(after_pts):
                bad_preserve.append(seed)
            elif before_pts and np.max(
                np.abs(np.array(before_pts) - np.array(after_pts))
            ) > 1e-9:
                bad_preserve.append(seed)
            grid = grid_feasible_set(prob, GridSpec(points_per_axis=21))
            if grid.shape[0]:
                margin = report.z_star - float(np.min(grid @ prob.c)) - 1e-9
                if margin > 0.0:
                    bad_grid.append((seed, margin))
        elapsed = time.perf_counter() - t0
        ok = (
            not (bad_agree or bad_member or bad_preserve or bad_grid)
            and elapsed < 60.0
        )
        detail = (
            f"a: {len(bad_agree)} feasibility disagreements; "
            f"b: {len(bad_member)} membership failures; "
            f"c: {len(bad_preserve)} candidate-set changes; "
            f"d: {len(bad_grid)} instances with a grid point beating z*"
        )
        if bad_grid:
            worst = max(margin for _, margin in bad_grid)
            detail += (
                f" (seeds {[seed for seed, _ in bad_grid]}, "
                f"worst margin {worst:.3e})"
            )
        detail += f"; runtime {elapsed:.1f} s"
        emit(6, ok, detail)
        assert ok, detail

    def test_criterion_7_perturbations(self):
        entries = structure_suite()
        bumps_checked = 0
        bumps_failed = []
        cuts_checked = 0
        cuts_failed = []
        for entry in entries:
            seed, prob = entry["seed"], entry["problem"]
            x_max = entry["x_max"]
            for j in range(prob.n):
                if x_max[j] >= 1.0:
                    continue
                bumped = x_max.copy()
                bumped[j] += DELTA
                if bumped[j] > 1.0:
                    continue  # leaves the unit box: trivially not a solution
                bumps_checked += 1
                if check_membership(prob, bumped, tol=VIOLATION_FLOOR)[0]:
                    bumps_failed.append((seed, j))
            for cand in feasible_candidates(entry["candidates"]):
                for j in range(prob.n):
                    if cand.point[j] <= 0.0:
                        continue
                    if cand.point[j] < DELTA:
                        continue  # reduction leaves the unit box
                    reduced = cand.point.copy()
                    reduced[j] -= DELTA
                    cuts_checked += 1
                    if check_membership(prob, reduced, tol=VIOLATION_FLOOR)[0]:
                        cuts_failed.append((seed, j))
        ok = not bumps_failed and not cuts_failed
        detail = (
            f"maximality: {len(bumps_failed)}/{bumps_checked} upward bumps "
            f"stay solutions; minimality: {len(cuts_failed)}/{cuts_checked} "
            f"reductions stay solutions"
        )
        if cuts_failed:
            sample = sorted({seed for seed, _ in cuts_failed})[:10]
            detail += f" (first affected seeds {sample})"
        emit(7, ok, detail)
        assert ok, detail

    def test_criterion_8_enumeration_budget(self, tmp_path, capsys):
        prob = Problem(
            np.full((7, 8), 0.5),
            np.full(7, 0.5),
            np.zeros(8),
            WpmParams(0.75, 3.0),
        )
        required = 8**7
        caught = None
        try:
            enumerate_candidates(classify_all(prob))
        except EnumerationBudgetError as exc:
            caught = exc
        lib_ok = (
            caught is not None
            and caught.required == required
            and str(required) in str(caught)
        )
        path = tmp_path / "budget.json"
        path.write_text(problem_dumps(prob), encoding="utf-8")
        rc = main(["solve", str(path)])
        captured = capsys.readouterr()
        cli_ok = (
            rc == EXIT_BUDGET
            and captured.out == ""
            and str(required) in captured.err
        )
        ok = lib_ok and cli_ok
        emit(
            8,
            ok,
            f"library error names |E|={getattr(caught, 'required', None)}; "
            f"CLI exit {rc}, stdout "
            f"{'empty' if not captured.out else 'NOT EMPTY'}",
        )
        assert ok
