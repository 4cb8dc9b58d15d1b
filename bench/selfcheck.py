"""Self-check of the benchmark's reference answers against the package oracle.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py

On small generated instances whose raw selector space fits
``oracle.DEFAULT_ORACLE_LIMIT``, the MILP optimum of ``reference`` must equal
the optimum assembled from ``oracle.exhaustive_candidates`` with the sign
split of ``c``: negative-cost coordinates at the oracle's maximum point,
the rest at the feasible candidate corner of least positive-part cost.  On
small degenerate instances (``A == b == t``) the closed form must equal it
too.  Exits 0 when every comparison holds, 1 otherwise.
"""

from __future__ import annotations

import sys

import numpy as np

import reference as ref
from run import use_checkout_src

#: Generated instances checked; half as many degenerate ones follow.
INSTANCES = 40


def oracle_optimum(wpmfre, problem) -> float | None:
    """Optimum assembled from the oracle alone, by the sign split of ``c``.

    Negative-cost coordinates sit at the oracle's maximum point (built, as
    the oracle builds it, from its endpoint classification and bisection
    levels); the rest sit at the feasible candidate corner of least
    positive-part cost.
    """
    oracle = wpmfre.oracle
    candidates = [c for c in oracle.exhaustive_candidates(problem) if c.feasible]
    if not candidates:
        return None
    x_max = np.ones(problem.n)
    for i, groups in enumerate(oracle._endpoint_classify(problem)):
        for j in groups["active"]:
            level = oracle._bisect_level(float(problem.A[i, j]), float(problem.b[i]), problem)
            x_max[j] = min(x_max[j], level)
    c = problem.c
    positive = np.maximum(c, 0.0)
    best = min(candidates, key=lambda cand: float(positive @ cand.point))
    return float(c @ np.where(c < 0.0, x_max, best.point))


def main() -> int:
    if not use_checkout_src():
        return 2
    import wpmfre
    import wpmfre.oracle

    rng = np.random.default_rng(0)
    limit = wpmfre.oracle.DEFAULT_ORACLE_LIMIT
    bad = checked = 0
    while checked < INSTANCES:
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        params = wpmfre.WpmParams(float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.0, 3.0)))
        problem = wpmfre.io.generate_instance(m, n, params, int(rng.integers(2**31)))
        inst = ref.Instance.from_doc(wpmfre.io.problem_to_dict(problem))
        if ref.raw_selector_count(inst) > limit:
            continue
        checked += 1
        milp = ref.milp_optimum(inst)
        brute = oracle_optimum(wpmfre, problem)
        if milp is None or brute is None or not ref.close(milp, brute):
            bad += 1
            print(f"generated {m}x{n}: MILP {milp}, oracle {brute}")
    for k in range(INSTANCES // 2):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        t = float(rng.uniform(0.3, 0.9))
        c = rng.uniform(-10.0, 10.0, size=n) if k % 2 else rng.uniform(0.5, 10.0, size=n)
        params = wpmfre.WpmParams(float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.0, 3.0)))
        problem = wpmfre.Problem(np.full((m, n), t), np.full(m, t), c, params)
        inst = ref.Instance.from_doc(wpmfre.io.problem_to_dict(problem))
        closed = ref.degenerate_optimum(t, c)
        milp = ref.milp_optimum(inst)
        brute = oracle_optimum(wpmfre, problem)
        if milp is None or brute is None or not (ref.close(closed, milp) and ref.close(closed, brute)):
            bad += 1
            print(f"degenerate {m}x{n}: closed form {closed}, MILP {milp}, oracle {brute}")
        checked += 1
    print(f"{checked} instances checked, {bad} disagreements")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
