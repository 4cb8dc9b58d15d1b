"""The three workloads: their seeded inputs and the check of every op.

Each workload writes its problem files, then names the ``wpmfre`` command
line of every op.  The shapes of the instances are fixed, and the seed
draws their contents, so the cost of a pass barely depends on the seed.
A check compares one op's output with answers computed in ``reference``,
never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

#: Selector budget of ``solve_mixed``, passed with ``--limit``.  The
#: selector space after simplification is heavy-tailed; without a budget
#: a single instance can take most of a run.
MIXED_LIMIT = 500

#: ``solve_mixed`` solves every shape m x n with m, n in [6, 16] this many
#: times per pass, with seeded contents, ``w`` and ``p``.
MIXED_COPIES = 2

#: ``enum_degenerate`` ops: rows, columns, and whether some cost is negative.
#: Selector spaces n**m run from 1e4 to 4.7e4.
ENUM_OPS = [
    (4, 10, True),
    (4, 10, False),
    (7, 4, True),
    (5, 7, False),
    (9, 3, True),
    (4, 12, False),
    (5, 8, True),
    (6, 6, False),
    (6, 6, True),
]

#: ``feasibility_large`` shapes; each gets two feasible copies and one made
#: infeasible by lowering one target below a blocking entry.
FEAS_SIZES = (40, 80, 120)
FEAS_COPIES = (True, True, False)

_BUDGET_RE = re.compile(r"requires (\d+) selector vectors, limit (\d+)")


@dataclass
class Op:
    """One ``wpmfre`` call: its arguments and what its check needs."""

    argv: list[str]
    path: Path
    info: dict = field(default_factory=dict)


class UncheckableInput(RuntimeError):
    """An input does not allow a reference answer; the run cannot be judged."""


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")


def _hidden_point(m: int, n: int, seed: int, A: np.ndarray) -> np.ndarray:
    """Redraw the hidden point of ``generate_instance(m, n, _, seed)``.

    ``generate_instance`` documents its draws: A, then the hidden point,
    then the costs, from ``default_rng(seed)``.  The redrawn A must equal
    the file's A bit for bit, or the hidden point is not the one used.
    """
    rng = np.random.default_rng(seed)
    if not np.array_equal(rng.uniform(size=(m, n)), A):
        raise UncheckableInput(f"instance {m}x{n} seed {seed} was not drawn as documented")
    return rng.uniform(size=n)


def _load(op: Op) -> ref.Instance:
    return ref.Instance.from_doc(json.loads(op.path.read_text(encoding="utf-8")))


def _solve_record(rc, stdout: str, stderr: str) -> dict:
    """The parts of a ``wpmfre solve`` output that the checks read."""
    if rc == 3:
        match = _BUDGET_RE.search(stderr)
        if match:
            return {"rc": 3, "required": int(match[1]), "limit": int(match[2])}
        return {"rc": 3, "error": stderr[-300:]}
    try:
        doc = json.loads(stdout)
        return {
            "rc": rc,
            "status": doc["status"],
            "z": doc["z_star"],
            "x": doc["x_star"],
            "total": doc["candidates_total"],
            "distinct": doc["candidates_feasible"],
            "listed": len(doc["candidates"]),
        }
    except (ValueError, KeyError, TypeError):
        return {"rc": rc, "error": (stderr or stdout)[-300:]}


def _optimal_ok(rec: dict, inst: ref.Instance) -> bool:
    if rec.get("rc") != 0 or rec.get("status") != "optimal" or rec.get("x") is None:
        return False
    x = np.asarray(rec["x"], dtype=float)
    return (
        ref.is_member(inst, x)
        and isinstance(rec["z"], (int, float))
        and ref.close(rec["z"], float(inst.c @ x))
    )


class SolveMixed:
    """``wpmfre solve --limit`` over generated instances of every shape 6..16."""

    name = "solve_mixed"

    def build(self, wpmfre, seed: int, directory: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 1])
        shapes = [(m, n) for m in range(6, 17) for n in range(6, 17)] * MIXED_COPIES
        ops = []
        for k in rng.permutation(len(shapes)):
            m, n = shapes[k]
            w, p = float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.0, 3.0))
            inst_seed = int(rng.integers(2**31))
            problem = wpmfre.io.generate_instance(m, n, wpmfre.WpmParams(w, p), inst_seed)
            path = directory / f"mixed_{len(ops):03d}.json"
            _write(path, wpmfre.io.problem_to_dict(problem))
            ops.append(Op(["solve", str(path), "--limit", str(MIXED_LIMIT)], path, {"seed": inst_seed}))
        return ops

    record = staticmethod(_solve_record)

    def reference(self, op: Op):
        inst = _load(op)
        hidden = _hidden_point(*inst.A.shape, op.info["seed"], inst.A)
        if not ref.is_member(inst, hidden):
            raise UncheckableInput(f"{op.path.name}: hidden point does not solve its instance")
        return inst, hidden, ref.milp_optimum(inst), ref.raw_selector_count(inst)

    def check(self, op: Op, answer, rec: dict) -> bool:
        inst, hidden, optimum, raw = answer
        if rec.get("rc") == 3:
            return (
                rec.get("limit") == MIXED_LIMIT
                and MIXED_LIMIT < rec.get("required", 0) <= raw
            )
        return (
            optimum is not None
            and _optimal_ok(rec, inst)
            and ref.close(rec["z"], optimum)
            and rec["z"] <= float(inst.c @ hidden) + 1e-9 * max(1.0, abs(rec["z"]))
        )


class EnumDegenerate:
    """``wpmfre solve`` on ``A == b == t``: every selector gives a corner."""

    name = "enum_degenerate"

    def build(self, wpmfre, seed: int, directory: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for m, n, negative in ENUM_OPS:
            t = float(rng.uniform(0.3, 0.9))
            c = rng.uniform(-10.0, 10.0, size=n) if negative else rng.uniform(0.5, 10.0, size=n)
            if negative and not (c < 0).any():
                c[int(rng.integers(n))] *= -1.0
            doc = {
                "w": float(rng.uniform(0.5, 0.9)),
                "p": float(rng.uniform(1.0, 3.0)),
                "A": [[t] * n for _ in range(m)],
                "b": [t] * m,
                "c": c.tolist(),
            }
            path = directory / f"enum_{len(ops):02d}.json"
            _write(path, doc)
            ops.append(Op(["solve", str(path)], path))
        return ops

    record = staticmethod(_solve_record)

    def reference(self, op: Op):
        inst = _load(op)
        t = float(inst.b[0])
        if not (np.all(inst.A == t) and np.all(inst.b == t)):
            raise UncheckableInput(f"{op.path.name}: not a degenerate instance")
        m, n = inst.A.shape
        # a selector's corner is t on the set of columns it picks
        distinct = sum(math.comb(n, k) for k in range(1, min(m, n) + 1))
        return inst, t, ref.degenerate_optimum(t, inst.c), n**m, distinct

    def check(self, op: Op, answer, rec: dict) -> bool:
        inst, t, z, selectors, distinct = answer
        if not _optimal_ok(rec, inst):
            return False
        x = np.asarray(rec["x"], dtype=float)
        negative = inst.c < 0.0
        return (
            ref.close(rec["z"], z)
            and bool(np.all(np.abs(x[negative] - t) <= 1e-9))
            and rec["total"] == rec["listed"] == selectors
            and rec["distinct"] == distinct
        )


class FeasibilityLarge:
    """``wpmfre feasibility`` on generated instances of sizes 40 to 120."""

    name = "feasibility_large"

    def build(self, wpmfre, seed: int, directory: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 3])
        plan = [(m, n, feasible) for m in FEAS_SIZES for n in FEAS_SIZES for feasible in FEAS_COPIES]
        ops = []
        for k in rng.permutation(len(plan)):
            m, n, feasible = plan[k]
            w, p = float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.0, 3.0))
            inst_seed = int(rng.integers(2**31))
            problem = wpmfre.io.generate_instance(m, n, wpmfre.WpmParams(w, p), inst_seed)
            doc = wpmfre.io.problem_to_dict(problem)
            info = {"seed": inst_seed, "blocked_row": None}
            if not feasible:
                # lower one target below its row's largest entry at x = 0
                row = int(rng.integers(m))
                doc["b"][row] = float(0.9 * ref.wpm(max(doc["A"][row]), 0.0, w, p))
                info["blocked_row"] = row
            path = directory / f"feas_{len(ops):02d}.json"
            _write(path, doc)
            ops.append(Op(["feasibility", str(path)], path, info))
        return ops

    @staticmethod
    def record(rc, stdout: str, stderr: str) -> dict:
        try:
            doc = json.loads(stdout)
            return {
                "rc": rc,
                "feasible": doc["feasible"],
                "x_max": doc.get("x_max"),
                "row": doc.get("row"),
                "blocking": doc.get("blocking_entries"),
            }
        except (ValueError, KeyError, TypeError):
            return {"rc": rc, "error": (stderr or stdout)[-300:]}

    def reference(self, op: Op):
        inst = _load(op)
        row = op.info["blocked_row"]
        if row is None:
            hidden = _hidden_point(*inst.A.shape, op.info["seed"], inst.A)
            if not ref.is_member(inst, hidden):
                raise UncheckableInput(f"{op.path.name}: hidden point does not solve its instance")
            return inst, hidden
        if not ref.endpoint_masks(inst)[0][row].any():
            raise UncheckableInput(f"{op.path.name}: lowered row {row} has no blocking entry")
        return inst, None

    def check(self, op: Op, answer, rec: dict) -> bool:
        inst, hidden = answer
        if hidden is not None:
            if rec.get("rc") != 0 or rec.get("feasible") is not True or rec.get("x_max") is None:
                return False
            x_max = np.asarray(rec["x_max"], dtype=float)
            return ref.is_member(inst, x_max) and bool(np.all(x_max >= hidden - ref.CLASSIFY_TOL))
        blocking = rec.get("blocking") or []
        at_zero = ref.wpm(inst.A, 0.0, inst.w, inst.p)
        return (
            rec.get("rc") == 1
            and rec.get("feasible") is False
            and rec.get("row") == op.info["blocked_row"]
            and bool(blocking)
            and all(at_zero[i, j] > inst.b[i] for i, j in blocking)
        )


WORKLOADS = {w.name: w for w in (SolveMixed(), EnumDegenerate(), FeasibilityLarge())}
