"""Seeded benchmark of the ``wpmfre`` command, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve_mixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --baseline

One process, one thread, closed loop: each op calls ``wpmfre.cli.main``
in-process with stdout and stderr captured in memory, so it runs the
command's code path without interpreter start-up.  The workload's ops run
in whole passes until ``--seconds`` have gone by.  Every op's output is
then checked against answers computed apart from the solver.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped module functions with ``--trace 1``).  ``--baseline`` prints
the ROADMAP Baseline table instead.
"""

from __future__ import annotations

import os

# numpy and BLAS run single-threaded; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference as ref
from tracing import Tracer
from workloads import WORKLOADS, UncheckableInput

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7


def use_checkout_src() -> bool:
    """Put this checkout's ``src`` first on the import path, if it holds the program."""
    if not (SRC / "wpmfre" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'wpmfre'} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def import_program():
    """Import ``wpmfre`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "wpmfre" or n.startswith("wpmfre.")]:
        del sys.modules[name]
    wpmfre = importlib.import_module("wpmfre")
    for module in ("cli", "io"):
        importlib.import_module(f"wpmfre.{module}")
    if Path(wpmfre.__file__).resolve().parent != SRC / "wpmfre":
        raise ImportError(f"wpmfre imported from {wpmfre.__file__}, not from {SRC}")
    return wpmfre


def set_up(workload, seed: int, directory: Path):
    """Import the program and write the workload's problem files, ``SETUPS`` times."""
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        wpmfre = import_program()
        ops = workload.build(wpmfre, seed, directory)
        times.append(time.perf_counter() - start)
    return wpmfre, ops, statistics.median(times)


class Capture(io.TextIOBase):
    """In-memory stdout or stderr that keeps the strings written, uncopied.

    A report of 1e4 candidates is a string of about 10 MB.  Keeping the
    program's own string, rather than a copy in a ``StringIO``, keeps the
    benchmark's bookkeeping out of the peak RSS it measures.
    """

    def __init__(self) -> None:
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def getvalue(self) -> str:
        parts = [p for p in self.parts if not p.isspace()]
        return parts[0] if len(parts) == 1 else "".join(parts)


def run_ops(wpmfre, workload, ops, seconds: float, tracer: Tracer | None):
    """Whole passes over ``ops`` until ``seconds`` have gone by.

    Returns the wall time of every op, from the call into ``cli.main`` to
    its return, and the parts of its output that the checks read.
    """
    times: list[float] = []
    records: list[tuple[int, dict]] = []
    start = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op = len(times)
            out, err = Capture(), Capture()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = wpmfre.cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc = None
                t1 = time.perf_counter()
                if rc is None:
                    traceback.print_exc()
            times.append(t1 - t0)
            records.append((k, workload.record(rc, out.getvalue(), err.getvalue())))
        if time.perf_counter() - start >= seconds:
            return times, records


def check_ops(workload, ops, records) -> tuple[bool, int]:
    """Check every record against its op's reference; returns (correct, failed)."""
    answers: dict[int, object] = {}
    correct, failed = True, 0
    for k, rec in records:
        if k not in answers:
            try:
                answers[k] = workload.reference(ops[k])
            except UncheckableInput as exc:
                print(f"no reference for op {k}: {exc}", file=sys.stderr)
                correct, answers[k] = False, None
        try:
            ok = answers[k] is not None and workload.check(ops[k], answers[k], rec)
        except (TypeError, ValueError, IndexError, KeyError):
            ok = False  # an output of the wrong shape
        if not ok:
            failed += 1
            print(f"op {k} ({' '.join(ops[k].argv)}) failed its check: {rec}", file=sys.stderr)
    return correct, failed


def run(args) -> int:
    if not use_checkout_src():
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"inputs-{tag}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        wpmfre, ops, setup_s = set_up(workload, args.seed, inputs)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            times, records = run_ops(wpmfre, workload, ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # before the reference answers load scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, failed = check_ops(workload, ops, records)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = len(times)
    p50_ms = statistics.median(times) * 1e3
    p90_ms = statistics.quantiles(times, n=10)[-1] * 1e3 if attempted > 1 else p50_ms
    ops_per_s = (attempted - failed) / sum(times)
    print(
        f"{tag}: {attempted // len(ops)} passes of {len(ops)} ops, {failed} failed; "
        f"op p50 {p50_ms:.3f} ms, p90 {p90_ms:.3f} ms, {ops_per_s:.3f} ops/s, "
        f"peak RSS {peak_rss_mb:.1f} MB, setup {setup_s:.4f} s"
    )
    if tracer is not None:
        metrics, absent = tracer.layer_metrics(attempted)
        if absent:
            print(f"absent layer metrics (wrapped name no longer exists): {', '.join(absent)}")
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(
        json.dumps(dict(result, op_p90_ms=p90_ms, passes=attempted // len(ops), op_ms=[t * 1e3 for t in times])) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


#: ROADMAP Baseline instances: generate_instance(m, n, WpmParams(0.75, 3.0), seed).
BASELINE = [(5, 7, 0), (20, 20, 2), (40, 40, 3), (100, 100, 4)]


def baseline() -> int:
    """Print the ROADMAP Baseline table: selectors, solve time and slowest stage."""
    if not use_checkout_src():
        return 2
    wpmfre = import_program()
    print("| instance | selectors, raw → simplified | `solve` (median of 5) | slowest stage |")
    print("|---|---|---|---|")
    for m, n, seed in BASELINE:
        problem = wpmfre.io.generate_instance(m, n, wpmfre.WpmParams(0.75, 3.0), seed)
        raw = ref.raw_selector_count(ref.Instance.from_doc(wpmfre.io.problem_to_dict(problem)))
        times = []
        for _ in range(5):
            gc.collect()
            t0 = time.perf_counter()
            report = wpmfre.optimize.solve(problem)
            times.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            wpmfre.optimize.solve(problem)
        finally:
            tracer.uninstall()
        stages: dict[str, float] = {}
        for _, name, parent, start, end in tracer.spans:
            if parent < 0:
                stages[name] = stages.get(name, 0.0) + end - start
        slowest = max(stages, key=stages.get)
        after = report.simplification.choices_after if report.simplification else None
        print(
            f"| {m}x{n}, seed {seed} | {raw:.3g} → {after:.3g} | "
            f"{statistics.median(times) * 1e3:.1f} ms, {report.status} | "
            f"{slowest} {stages[slowest] * 1e3:.1f} ms |"
        )
    print("| 6x10, `A = b = 0.5`, `c = linspace(-1, 1)` | not run: 3.2 GB peak RSS | | |")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="print the ROADMAP Baseline table")
    args = parser.parse_args(argv)
    if args.baseline:
        return baseline()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
