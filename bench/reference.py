"""Reference answers computed apart from the solver.

Nothing here imports ``wpmfre``.  The only thing shared with the program
is the definition of the operator,

    wpm(a, x) = (w * a**p + (1 - w) * x**p) ** (1/p),

evaluated here with numpy over whole matrices.  Entries are classified by
evaluating the operator at the endpoints ``x = 0`` and ``x = 1``,
attainment levels come from bisection on the operator, and the optimum of
a linear cost over the solution set comes from a 0-1 program solved by
``scipy.optimize.milp`` (HiGHS), built straight from the row constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Value-space band used when classifying an entry from its endpoint values
#: and when deciding whether a level fits under a column's upper bound.
CLASSIFY_TOL = 1e-9

#: Residual a point may leave on any row and still count as a solution.
MEMBER_TOL = 1e-6

_BISECT_STEPS = 100


@dataclass(frozen=True)
class Instance:
    """A problem as read from its file: ``A`` (m x n), ``b``, ``c``, ``w``, ``p``."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: float
    p: float

    @classmethod
    def from_doc(cls, doc: dict) -> "Instance":
        return cls(
            A=np.array(doc["A"], dtype=float),
            b=np.array(doc["b"], dtype=float),
            c=np.array(doc["c"], dtype=float),
            w=float(doc["w"]),
            p=float(doc["p"]),
        )


def wpm(a, x, w: float, p: float) -> np.ndarray:
    """The operator, broadcast over arrays."""
    return (w * np.asarray(a) ** p + (1.0 - w) * np.asarray(x) ** p) ** (1.0 / p)


def residuals(inst: Instance, x: np.ndarray) -> np.ndarray:
    """``|max_j wpm(A[i,j], x[j]) - b[i]|`` for every row ``i``."""
    return np.abs(wpm(inst.A, x[None, :], inst.w, inst.p).max(axis=1) - inst.b)


def is_member(inst: Instance, x: np.ndarray, tol: float = MEMBER_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.A.shape[1],) or not np.all((x >= 0.0) & (x <= 1.0)):
        return False
    return bool(np.all(residuals(inst, x) <= tol))


def endpoint_masks(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocking, inert and active masks from the operator at ``x = 0`` and ``x = 1``."""
    target = inst.b[:, None]
    blocking = wpm(inst.A, 0.0, inst.w, inst.p) > target + CLASSIFY_TOL
    inert = ~blocking & (wpm(inst.A, 1.0, inst.w, inst.p) < target - CLASSIFY_TOL)
    return blocking, inert, ~blocking & ~inert


def raw_selector_count(inst: Instance) -> int:
    """Selectors before any simplification: product of active counts per row."""
    _, _, active = endpoint_masks(inst)
    return math.prod(int(k) for k in active.sum(axis=1))


def levels(inst: Instance) -> np.ndarray:
    """``x`` with ``wpm(A[i,j], x) == b[i]`` for every entry, by bisection.

    Meaningful on active entries only; elsewhere the value is an endpoint.
    """
    target = np.broadcast_to(inst.b[:, None], inst.A.shape)
    lo = np.zeros(inst.A.shape)
    hi = np.ones(inst.A.shape)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = wpm(inst.A, mid, inst.w, inst.p) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def milp_optimum(inst: Instance) -> float | None:
    """Minimum of ``c @ x`` over the solution set, or None if it is empty.

    Row ``i`` holds at ``x`` exactly when no entry overshoots, that is
    ``x[j] <= v[i,j]`` for every active entry, and some active entry is
    attained, ``x[j] >= v[i,j]``.  The 0-1 program has the upper bounds
    ``u[j] = min_i v[i,j]`` on ``x``, one binary ``y[i,j]`` per active entry
    with ``x[j] >= v[i,j] * y[i,j]``, and ``sum_j y[i,j] >= 1`` per row.  A
    binary whose level does not fit under ``u[j]`` within ``CLASSIFY_TOL``
    is fixed to 0, so the solver's own feasibility tolerance never admits
    a witness that overshoots.  The optimal point is rebuilt from the
    chosen witnesses, so its cost carries no round-off from the MILP solver.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    blocking, _, active = endpoint_masks(inst)
    if blocking.any() or not active.any(axis=1).all():
        return None
    m, n = inst.A.shape
    v = levels(inst)
    upper = np.where(active, v, 1.0).min(axis=0)
    rows, cols = np.nonzero(active)
    k = rows.size
    v_act = v[rows, cols]
    fits = v_act <= upper[cols] + CLASSIFY_TOL
    if not np.bincount(rows[fits], minlength=m).all():
        return None
    ks = np.arange(k)
    # witness rows: x[j] - v[i,j] * y[i,j] >= 0, one per active entry
    witness = coo_matrix(
        (np.concatenate([np.ones(k), -v_act]), (np.concatenate([ks, ks]), np.concatenate([cols, n + ks]))),
        shape=(k, n + k),
    )
    # cover rows: sum_j y[i,j] >= 1
    cover = coo_matrix((np.ones(k), (rows, n + ks)), shape=(m, n + k))
    res = milp(
        c=np.concatenate([inst.c, np.zeros(k)]),
        integrality=np.concatenate([np.zeros(n), np.ones(k)]),
        bounds=Bounds(np.zeros(n + k), np.concatenate([upper, fits.astype(float)])),
        constraints=[LinearConstraint(witness, 0.0, np.inf), LinearConstraint(cover, 1.0, np.inf)],
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach an optimum: {res.message}")
    # a chosen witness fits, so its column sits at its upper bound
    witnessed = np.zeros(n, dtype=bool)
    witnessed[cols[res.x[n:] > 0.5]] = True
    return float(inst.c @ np.where((inst.c < 0.0) | witnessed, upper, 0.0))


def degenerate_optimum(t: float, c: np.ndarray) -> float:
    """Closed form for ``A == t`` and ``b == t`` everywhere.

    Every entry is active at level ``t``, so negative-cost columns sit at
    ``t`` and one column may witness every row.  With a negative cost the
    positive part costs nothing; without one, the cheapest column does.
    """
    negative = c[c < 0.0]
    return float(t * negative.sum()) if negative.size else float(t * c.min())


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
