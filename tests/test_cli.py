"""Command-line interface tests, run in process through main()."""

import argparse
import itertools
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import GOLDEN, GOLDEN_PATH

from wpmfre import WpmParams, classify_all, max_solution, wpm
from wpmfre.cli import (
    ENV_LIMIT,
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    build_parser,
    main,
)

P = WpmParams(0.75, 3.0)

GOLDEN_ARG = str(GOLDEN_PATH)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def blocking_doc():
    return {
        "w": 0.75,
        "p": 3.0,
        "A": [[1.0], [0.5]],
        "b": [0.5, 0.5],
        "c": [0.0],
    }


def conflicting_doc():
    return {
        "w": 0.75,
        "p": 3.0,
        "A": [[0.7], [0.7]],
        "b": [wpm(0.7, 0.3, P), wpm(0.7, 0.6, P)],
        "c": [0.0],
    }


def budget_doc():
    return {
        "w": 0.75,
        "p": 3.0,
        "A": [[0.5] * 8 for _ in range(7)],
        "b": [0.5] * 7,
        "c": [0.0] * 8,
    }


class TestSolveCommand:
    def test_golden_solve(self, capsys):
        assert main(["solve", GOLDEN_ARG]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["z_star"] == pytest.approx(GOLDEN["z_star"], abs=1e-3)
        assert doc["e_star"] == [1, 0, 5, 2, 3]

    def test_no_simplify_same_objective(self, capsys):
        assert main(["solve", GOLDEN_ARG]) == EXIT_OK
        z_on = json.loads(capsys.readouterr().out)["z_star"]
        assert main(["solve", GOLDEN_ARG, "--no-simplify"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["z_star"] - z_on) <= 1e-9
        assert doc["candidates_total"] == GOLDEN["choices_before"]
        assert doc["simplification"] is None

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", GOLDEN_ARG, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["status"] == "optimal"

    def test_infeasible_instance(self, tmp_path, capsys):
        path = write_problem(tmp_path, "blocked.json", blocking_doc())
        assert main(["solve", path]) == EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "infeasible"
        assert doc["diagnostic"]["reason"] == "infeasible_row"

    @pytest.mark.parametrize("flags", [[], ["--no-simplify"]])
    def test_no_corner_under_x_max(self, tmp_path, capsys, flags):
        """Large p: x_max passes the membership check, yet no corner fits under it."""
        rc = main(["generate", "--rows", "3", "--cols", "4", "--w", "0.5", "--p", "10"])
        assert rc == EXIT_OK
        path = tmp_path / "large_p.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["solve", str(path), *flags]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "infeasible"
        assert doc["feasible"] is True
        assert doc["x_star"] is None
        assert doc["candidates"] is None
        assert doc["diagnostic"] == {"reason": "no_corner_under_x_max", "rows": [1]}
        # the feasibility command certifies the same x_max
        assert main(["feasibility", str(path)]) == EXIT_OK
        feas = json.loads(capsys.readouterr().out)
        assert feas["feasible"] is True
        assert feas["x_max"] == doc["x_max"]


class TestBudget:
    def test_default_limit_exceeded(self, tmp_path, capsys):
        path = write_problem(tmp_path, "budget.json", budget_doc())
        assert main(["solve", path]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2097152" in captured.err

    def test_limit_flag(self, capsys):
        rc = main(["solve", GOLDEN_ARG, "--no-simplify", "--limit", "5"])
        assert rc == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires 24" in captured.err
        assert "limit 5" in captured.err

    def test_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_LIMIT, "5")
        assert main(["solve", GOLDEN_ARG, "--no-simplify"]) == EXIT_BUDGET
        capsys.readouterr()
        # An explicit flag wins over the environment.
        rc = main(["solve", GOLDEN_ARG, "--no-simplify", "--limit", "30"])
        assert rc == EXIT_OK

    def test_env_limit_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_LIMIT, "plenty")
        assert main(["solve", GOLDEN_ARG]) == EXIT_INPUT_ERROR
        assert ENV_LIMIT in capsys.readouterr().err


class TestFeasibilityCommand:
    def test_golden(self, capsys):
        assert main(["feasibility", GOLDEN_ARG]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["x_max"] == pytest.approx(GOLDEN["x_max"], abs=1e-4)
        assert max(doc["residuals"]) <= 1e-6

    def test_blocking_row(self, tmp_path, capsys):
        path = write_problem(tmp_path, "blocked.json", blocking_doc())
        assert main(["feasibility", path]) == EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        assert doc["row"] == 0
        assert doc["blocking_entries"] == [[0, 0]]

    def test_conflicting_rows(self, tmp_path, capsys):
        path = write_problem(tmp_path, "conflict.json", conflicting_doc())
        assert main(["feasibility", path]) == EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        assert max(doc["residuals"]) > 1e-3


class TestSimplifyCommand:
    def test_golden(self, capsys):
        assert main(["simplify", GOLDEN_ARG]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["log"]["choices_before"] == GOLDEN["choices_before"]
        assert doc["log"]["choices_after"] == GOLDEN["choices_after"]
        assert len(doc["log"]["entries"]) == 29
        A = np.array(doc["problem"]["A"])
        for row, col in GOLDEN["second_rule_removals"]:
            assert A[row, col] == 0.0

    def test_fixpoint_flag(self, capsys):
        # one pass reaches the fixpoint, and the flag that repeated it is gone
        with pytest.raises(SystemExit) as info:
            main(["simplify", GOLDEN_ARG, "--fixpoint"])
        assert info.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --fixpoint" in capsys.readouterr().err

    def test_infeasible_instance(self, tmp_path, capsys):
        path = write_problem(tmp_path, "blocked.json", blocking_doc())
        assert main(["simplify", path]) == EXIT_INFEASIBLE
        assert "cannot simplify" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--"]])
    def test_conflicting_rows(self, tmp_path, capsys, flags):
        # every row is feasible, the system is not; a path after the
        # end-of-options marker reads the same
        path = write_problem(tmp_path, "conflict.json", conflicting_doc())
        assert main(["simplify", *flags, path]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot simplify: row 1 is infeasible\n"


class TestVerifyCommand:
    def x_max_file(self, golden_problem, tmp_path, wrap):
        x_max = max_solution(classify_all(golden_problem)).overall
        payload = {"x": x_max.tolist()} if wrap else x_max.tolist()
        path = tmp_path / "point.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_member_bare_array(self, golden_problem, tmp_path, capsys):
        path = self.x_max_file(golden_problem, tmp_path, wrap=False)
        assert main(["verify", GOLDEN_ARG, path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] is True
        assert doc["max_residual"] <= 1e-6
        assert doc["tolerance"] == 1e-6

    def test_member_object_form(self, golden_problem, tmp_path, capsys):
        path = self.x_max_file(golden_problem, tmp_path, wrap=True)
        assert main(["verify", GOLDEN_ARG, path]) == EXIT_OK

    def test_non_member(self, tmp_path, capsys):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([0.0] * 7), encoding="utf-8")
        assert main(["verify", GOLDEN_ARG, str(path)]) == EXIT_INFEASIBLE
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] is False
        assert doc["max_residual"] > 0.01

    def test_tolerance_flag(self, tmp_path, capsys):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([0.0] * 7), encoding="utf-8")
        assert main(["verify", GOLDEN_ARG, str(path), "--tol", "1.0"]) == EXIT_OK

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_rejected(self, golden_problem, tmp_path, capsys, tol):
        path = self.x_max_file(golden_problem, tmp_path, wrap=False)
        assert main(["verify", GOLDEN_ARG, path, "--tol", tol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err


class TestGenerateCommand:
    def test_round_trip_and_feasibility(self, tmp_path, capsys):
        rc = main(["generate", "--rows", "3", "--cols", "4", "--seed", "11"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        path = tmp_path / "generated.json"
        path.write_text(text, encoding="utf-8")
        assert main(["feasibility", str(path)]) == EXIT_OK

    def test_deterministic(self, capsys):
        assert main(["generate", "--rows", "2", "--cols", "2", "--seed", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["generate", "--rows", "2", "--cols", "2", "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_invalid_dimensions(self, capsys):
        assert main(["generate", "--rows", "0", "--cols", "2"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err != ""

    def test_invalid_weight(self, capsys):
        rc = main(["generate", "--rows", "1", "--cols", "1", "--w", "1.5"])
        assert rc == EXIT_INPUT_ERROR

    def test_negative_seed(self, capsys):
        rc = main(["generate", "--rows", "2", "--cols", "2", "--seed", "-1"])
        assert rc == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be nonnegative, got -1" in captured.err


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err != ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all", encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_INPUT_ERROR
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({**blocking_doc(), "extra": 1}), encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown field(s): extra" in captured.err


    @pytest.mark.parametrize(
        "number, message",
        [
            ("1" + "0" * 400, "is too large for a float"),
            ("1" * 4301, "invalid JSON"),
            ("[" * 100_000 + "0.5" + "]" * 100_000, "invalid JSON"),
        ],
        ids=["overflows-float", "too-many-digits", "nested-too-deeply"],
    )
    def test_malformed_number(self, tmp_path, capsys, number, message):
        problem, point = tmp_path / "problem.json", tmp_path / "point.json"
        problem.write_text(
            json.dumps(blocking_doc()).replace("[[1.0]", f"[[{number}]"), encoding="utf-8"
        )
        point.write_text(f"[{number}]", encoding="utf-8")
        runs = [
            ["feasibility", str(problem)],
            ["solve", str(problem)],
            ["verify", GOLDEN_ARG, str(point)],
        ]
        for argv in runs:
            assert main(argv) == EXIT_INPUT_ERROR
            assert message in capsys.readouterr().err


class TestReadmeSynopsis:
    def test_options_match_parser(self):
        """README's ``## CLI`` synopsis names every subcommand's arguments."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
        documented = {}
        for line in block.splitlines():
            _, command, *words = line.split()
            positionals = list(itertools.takewhile(str.isupper, words))
            documented[command] = (positionals, sorted(re.findall(r"--[a-z-]+", line)))
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        actual = {}
        for command, parser in subparsers.choices.items():
            args = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            positionals = [a.dest.upper() for a in args if not a.option_strings]
            options = sorted(o for a in args for o in a.option_strings)
            actual[command] = (positionals, options)
        assert documented == actual


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wpmfre", "solve", GOLDEN_ARG],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["status"] == "optimal"
