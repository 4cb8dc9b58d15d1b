"""Problem files, report serialization, and random instance generation.

Problem files are JSON objects with exactly the fields "w", "p", "A",
"b", "c".  Floats round-trip bit-exactly because serialization uses the
shortest digit string that reparses to the same 64-bit value.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .errors import DimensionError, DomainError, ProblemFormatError
from .lattice import CandidateMinimal, Candidates
from .model import Problem
from .optimize import SolveReport
from .simplify import SimplificationLog
from .wpm import WpmParams, wpm

__all__ = [
    "parse_problem",
    "load_problem",
    "problem_to_dict",
    "problem_dumps",
    "parse_point",
    "load_point",
    "report_to_dict",
    "report_dumps",
    "generate_instance",
]

_FIELDS = ("w", "p", "A", "b", "c")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ProblemFormatError(f"{where} is too large for a float") from None


def _as_vector(value: Any, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(f'field "{name}" must be a nonempty array')
    return [_as_number(v, f"{name}[{k}]") for k, v in enumerate(value)]


def _as_matrix(value: Any, name: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(f'field "{name}" must be a nonempty array of rows')
    rows = []
    width: int | None = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ProblemFormatError(f'"{name}"[{i}] must be a nonempty array')
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(
                f'"{name}"[{i}] has {len(row)} entries, expected {width}'
            )
        rows.append([_as_number(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)])
    return rows


def _load_json(document: str) -> Any:
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deeply nested
        raise ProblemFormatError(f"invalid JSON: {exc}") from None


def parse_problem(document: str) -> Problem:
    """Parse a problem file; diagnostics name the offending field and cell."""
    doc = _load_json(document)
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise ProblemFormatError(f"missing field(s): {', '.join(missing)}")
    unknown = [f for f in doc if f not in _FIELDS]
    if unknown:
        raise ProblemFormatError(f"unknown field(s): {', '.join(unknown)}")
    params = WpmParams(_as_number(doc["w"], '"w"'), _as_number(doc["p"], '"p"'))
    A = _as_matrix(doc["A"], "A")
    b = _as_vector(doc["b"], "b")
    c = _as_vector(doc["c"], "c")
    if len(b) != len(A):
        raise DimensionError(f'"b" has {len(b)} entries, "A" has {len(A)} rows')
    if len(c) != len(A[0]):
        raise DimensionError(f'"c" has {len(c)} entries, "A" has {len(A[0])} columns')
    return Problem(np.array(A), np.array(b), np.array(c), params)


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def problem_to_dict(problem: Problem) -> dict:
    return {
        "w": problem.params.w,
        "p": problem.params.p,
        "A": problem.A.tolist(),
        "b": problem.b.tolist(),
        "c": problem.c.tolist(),
    }


def problem_dumps(problem: Problem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2)


def parse_point(document: str) -> np.ndarray:
    """Parse a point file: either a bare array or an object with field "x"."""
    doc = _load_json(document)
    if isinstance(doc, dict):
        if "x" not in doc:
            raise ProblemFormatError('point object must carry field "x"')
        doc = doc["x"]
    return np.array(_as_vector(doc, "x"))


def load_point(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_point(fh.read())


def _candidate_to_dict(cand: CandidateMinimal) -> dict:
    return {
        "e": list(cand.choice),
        "point": cand.point.tolist(),
        "feasible": cand.feasible,
    }


def _log_to_dict(log: SimplificationLog) -> dict:
    return {
        "entries": [entry._asdict() for entry in log.entries],
        "choices_before": log.choices_before,
        "choices_after": log.choices_after,
    }


def report_to_dict(report: SolveReport) -> dict:
    """JSON-ready view of a solve report; arrays become lists."""
    return {
        "status": report.status,
        "feasible": report.feasible,
        "x_max": None if report.x_max is None else report.x_max.tolist(),
        "x_star": None if report.x_star is None else report.x_star.tolist(),
        "z_star": report.z_star,
        "e_star": None if report.e_star is None else list(report.e_star),
        "candidates_total": report.candidates_total,
        "candidates_feasible": report.candidates_feasible,
        "candidates": (
            None
            if report.candidates is None
            else [_candidate_to_dict(c) for c in report.candidates]
        ),
        "simplification": (
            None if report.simplification is None else _log_to_dict(report.simplification)
        ),
        "diagnostic": report.diagnostic,
        "timing_seconds": report.timing_seconds,
    }


#: Stands in for the candidate list and the simplification log while the
#: rest of a report is dumped; no other field of a report holds a NUL.
_SLOT = "\0slot\0"

# The layout ``json.dumps(indent=2)`` gives the candidates of a report.
_ITEM_OPEN = '    {\n      "e": [\n        '
_ITEM_NEXT = ",\n" + _ITEM_OPEN
_ITEM_MID = '\n      ],\n      "point": [\n        '
_ITEM_CLOSE = {
    flag: '\n      ],\n      "feasible": %s\n    }' % json.dumps(flag) + _ITEM_NEXT
    for flag in (False, True)
}
_NUMBER_SEP = ",\n        "

# ... and its simplification log.
_LOG = '{\n    "entries": %s,\n    "choices_before": %d,\n    "choices_after": %d\n  }'
_ENTRY = (
    '      {\n        "rule": "%s",\n        "row": %d,\n        "col": %d,\n'
    '        "old_value": %s\n      }'
)


def _candidates_dumps(candidates: Candidates | None) -> list[str]:
    """Pieces of the report's ``candidates`` value, laid out as ``json.dumps``.

    Each distinct point is written once, with ``float.__repr__`` as in
    ``json``, and its text is shared by every selector that reaches it.
    """
    if candidates is None:
        return ["null"]
    if len(candidates) == 0:
        return ["[]"]
    points = [
        _ITEM_MID + _NUMBER_SEP.join(map(float.__repr__, point))
        for point in candidates.points[candidates.first].tolist()
    ]
    tails = {flag: [t + close for t in points] for flag, close in _ITEM_CLOSE.items()}
    cols = [str(j) for j in range(candidates.points.shape[1])]
    pieces = ["[\n" + _ITEM_OPEN]
    for choice, k, flag in zip(
        candidates.choices.tolist(), candidates.corner.tolist(), candidates.feasible.tolist()
    ):
        pieces += (_NUMBER_SEP.join(map(cols.__getitem__, choice)), tails[flag][k])
    pieces[-1] = pieces[-1][: -len(_ITEM_NEXT)] + "\n  ]"
    return pieces


def _log_dumps(log: SimplificationLog | None) -> str:
    """The report's ``simplification`` value, laid out as ``json.dumps``."""
    if log is None:
        return "null"
    # an entry is a tuple in the template's order, and ``%s`` of a float is its repr
    entries = ",\n".join(map(_ENTRY.__mod__, log.entries))
    listed = "[\n" + entries + "\n    ]" if entries else "[]"
    return _LOG % (listed, log.choices_before, log.choices_after)


def report_dumps(report: SolveReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``, written directly.

    The candidate list and the simplification log are written from the
    report and the rest of the document by ``json.dumps``; the text is
    the same byte for byte.
    """
    rest = dataclasses.replace(report, candidates=None, simplification=None)
    doc = report_to_dict(rest)
    doc["candidates"] = doc["simplification"] = _SLOT
    head, middle, tail = json.dumps(doc, indent=2).split(json.dumps(_SLOT))
    pieces = _candidates_dumps(report.candidates)
    return "".join([head, *pieces, middle, _log_dumps(report.simplification), tail])


def generate_instance(m: int, n: int, params: WpmParams, seed: int) -> Problem:
    """Random feasible instance via forward composition.

    Draws, in this fixed order from one seeded generator: the matrix
    ``A`` uniformly on [0, 1], a hidden point uniformly on the unit box,
    and costs uniformly on [-10, 10].  Each target is the row composed at
    the hidden point, so the hidden point solves the system exactly and
    the instance is feasible by construction.  Deterministic per seed.
    """
    if m < 1 or n < 1:
        raise DimensionError(f"instance needs m, n >= 1, got m={m}, n={n}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    A = rng.uniform(size=(m, n))
    hidden = rng.uniform(size=n)
    c = rng.uniform(-10.0, 10.0, size=n)
    b = np.max(wpm(A, hidden[None, :], params), axis=1)
    return Problem(A, b, c, params)
