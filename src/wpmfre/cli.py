"""Command-line driver.

Exit codes: 0 success, 1 infeasible (solve/feasibility/verify/simplify on
an infeasible instance), 2 input error, 3 budget exceeded.  The optional
environment variable WPMFRE_ENUM_LIMIT overrides the default enumeration
budget; an explicit --limit flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import (
    BudgetError,
    DimensionError,
    DomainError,
    ParameterDomainError,
    ProblemFormatError,
)
from .io import (
    _log_to_dict,
    generate_instance,
    load_point,
    load_problem,
    problem_dumps,
    problem_to_dict,
    report_dumps,
)
from .lattice import DEFAULT_CHOICE_LIMIT
from .optimize import STATUS_BUDGET_EXCEEDED, STATUS_OPTIMAL, decide_feasibility, solve
from .oracle import check_membership
from .simplify import simplify_pipeline
from .wpm import FEASIBILITY_TOL, WpmParams

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

ENV_LIMIT = "WPMFRE_ENUM_LIMIT"

_INPUT_ERRORS = (
    ProblemFormatError,
    ParameterDomainError,
    DomainError,
    DimensionError,
    OSError,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="wpmfre",
        description="Linear optimization over max-weighted-power-mean "
        "relational equalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance end to end")
    p_solve.add_argument("problem")
    p_solve.add_argument("--no-simplify", action="store_true")
    p_solve.add_argument("--limit", type=int, default=None)
    p_solve.add_argument("--out", default=None)

    p_feas = sub.add_parser("feasibility", help="feasibility check only")
    p_feas.add_argument("problem")

    p_simp = sub.add_parser("simplify", help="print the simplified instance")
    p_simp.add_argument("problem")

    p_verify = sub.add_parser("verify", help="check a point against an instance")
    p_verify.add_argument("problem")
    p_verify.add_argument("point")
    p_verify.add_argument("--tol", type=float, default=FEASIBILITY_TOL)

    p_gen = sub.add_parser("generate", help="emit a random feasible instance")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument("--w", type=float, default=0.75)
    p_gen.add_argument("--p", type=float, default=3.0)
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_limit(flag_value: int | None) -> int:
    source, raw = "--limit", flag_value
    if flag_value is None:
        source, raw = ENV_LIMIT, os.environ.get(ENV_LIMIT)
        if raw is None:
            return DEFAULT_CHOICE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise ProblemFormatError(f"{source} must be an integer, got {raw!r}") from None
    if limit < 1:
        raise DomainError(f"{source} must be at least 1, got {limit}")
    return limit


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    report = solve(
        problem, simplify=not args.no_simplify, limit=_resolve_limit(args.limit)
    )
    if report.status == STATUS_BUDGET_EXCEEDED:
        diag = report.diagnostic or {}
        print(
            f"enumeration budget exceeded: requires {diag.get('required')} "
            f"selector vectors, limit {diag.get('limit')}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    text = report_dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.status == STATUS_OPTIMAL else EXIT_INFEASIBLE


def _cmd_feasibility(args: argparse.Namespace) -> int:
    _, x_max, residuals, diagnostic = decide_feasibility(load_problem(args.problem))
    if x_max is None:
        row = diagnostic["row"]
        doc = {
            "feasible": False,
            "row": row,
            "blocking_entries": [[row, j] for j in diagnostic["blocking_columns"]],
            "active_columns": diagnostic["active_columns"],
        }
    else:
        doc = {
            "feasible": diagnostic is None,
            "x_max": x_max.tolist(),
            "residuals": residuals.tolist(),
        }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if diagnostic is None else EXIT_INFEASIBLE


def _cmd_simplify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    classification, _, _, diagnostic = decide_feasibility(problem)
    if diagnostic is not None:
        row = diagnostic.get("row", diagnostic.get("worst_row"))
        print(f"cannot simplify: row {row} is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    simplified, log, _ = simplify_pipeline(problem, classification)
    print(
        json.dumps(
            {"problem": problem_to_dict(simplified), "log": _log_to_dict(log)},
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    point = load_point(args.point)
    member, residuals = check_membership(problem, point, args.tol)
    print(
        json.dumps(
            {
                "member": member,
                "residuals": residuals.tolist(),
                "max_residual": float(np.max(residuals)),
                "tolerance": args.tol,
            },
            indent=2,
        )
    )
    return EXIT_OK if member else EXIT_INFEASIBLE


def _cmd_generate(args: argparse.Namespace) -> int:
    params = WpmParams(args.w, args.p)
    problem = generate_instance(args.rows, args.cols, params, args.seed)
    print(problem_dumps(problem))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "feasibility": _cmd_feasibility,
    "simplify": _cmd_simplify,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except _INPUT_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
