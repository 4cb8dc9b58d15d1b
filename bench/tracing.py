"""Per-layer spans and counts, recorded from outside the program.

The traced run replaces public functions at the module attributes the
pipeline calls through (``wpmfre.optimize.classify_all``,
``wpmfre.cli.solve``, ...) with wrappers that record a span: its name,
start, end and parent.  Spans stay in memory until the run ends.  Hot
scalar functions (``wpm``, ``wpm_inverse``) are only counted, since a span
per call would cost more than the call.  An attribute that no longer
exists is skipped, and every metric that only it feeds is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# layer name -> the (module, attribute) sites the pipeline calls it through
SPAN_SITES = {
    "cli.main": [("wpmfre.cli", "main")],
    "io.load_problem": [("wpmfre.cli", "load_problem")],
    "io.report_dumps": [("wpmfre.cli", "report_dumps")],
    "model.classify_all": [
        ("wpmfre.optimize", "classify_all"),
        ("wpmfre.simplify", "classify_all"),
        ("wpmfre.cli", "classify_all"),
    ],
    "lattice.max_solution": [
        ("wpmfre.optimize", "max_solution"),
        ("wpmfre.lattice", "max_solution"),
        ("wpmfre.cli", "max_solution"),
    ],
    "lattice.enumerate_candidates": [("wpmfre.optimize", "enumerate_candidates")],
    "lattice.feasible_candidates": [("wpmfre.optimize", "feasible_candidates")],
    "simplify.simplify_pipeline": [("wpmfre.optimize", "simplify_pipeline")],
    "oracle.check_membership": [
        ("wpmfre.optimize", "check_membership"),
        ("wpmfre.cli", "check_membership"),
    ],
    "optimize.solve": [("wpmfre.cli", "solve")],
    "optimize.solve_z2": [("wpmfre.optimize", "solve_z2")],
}

COUNT_SITES = {
    "lattice.wpm_inverse": [("wpmfre.lattice", "wpm_inverse")],
    "oracle.wpm": [("wpmfre.oracle", "wpm")],
}

# counters read from a span's return value: counter -> (layer, extractor)
RESULT_COUNTERS = {
    "io.report_bytes": ("io.report_dumps", lambda text: len(text)),
    "lattice.selectors": ("lattice.enumerate_candidates", lambda cands: len(cands)),
    "lattice.distinct_corners": ("lattice.feasible_candidates", lambda cands: len(cands)),
    "simplify.entries_zeroed": ("simplify.simplify_pipeline", lambda res: len(res[1].entries)),
    "simplify.choices_before": ("simplify.simplify_pipeline", lambda res: res[1].choices_before),
    "simplify.choices_after": ("simplify.simplify_pipeline", lambda res: res[1].choices_after),
}

# per-layer metric -> (unit, how it is computed from one op's spans and counts)
METRICS = {
    "cli.main_self_ms": ("ms", ("self", "cli.main")),
    "io.load_problem_ms": ("ms", ("time", "io.load_problem")),
    "io.report_dumps_ms": ("ms", ("time", "io.report_dumps")),
    "io.report_bytes": ("bytes", ("counter", "io.report_bytes")),
    "model.classify_all_ms": ("ms", ("time", "model.classify_all")),
    "model.classify_all_calls": ("count", ("calls", "model.classify_all")),
    "lattice.max_solution_ms": ("ms", ("time", "lattice.max_solution")),
    "lattice.wpm_inverse_calls": ("count", ("counter", "lattice.wpm_inverse")),
    "lattice.enumerate_candidates_ms": ("ms", ("time", "lattice.enumerate_candidates")),
    "lattice.feasible_candidates_ms": ("ms", ("time", "lattice.feasible_candidates")),
    "lattice.selectors": ("count", ("counter", "lattice.selectors")),
    "lattice.distinct_corners": ("count", ("counter", "lattice.distinct_corners")),
    "lattice.useful_ratio": ("ratio", ("ratio", "lattice.distinct_corners", "lattice.selectors")),
    "simplify.simplify_pipeline_ms": ("ms", ("time", "simplify.simplify_pipeline")),
    "simplify.entries_zeroed": ("count", ("counter", "simplify.entries_zeroed")),
    "simplify.choices_before": ("count", ("median", "simplify.choices_before")),
    "simplify.choices_after": ("count", ("median", "simplify.choices_after")),
    "oracle.check_membership_ms": ("ms", ("time", "oracle.check_membership")),
    "oracle.check_membership_calls": ("count", ("calls", "oracle.check_membership")),
    "oracle.wpm_calls": ("count", ("counter", "oracle.wpm")),
    "optimize.solve_ms": ("ms", ("time", "optimize.solve")),
    "optimize.solve_self_ms": ("ms", ("self", "optimize.solve")),
    "optimize.solve_z2_ms": ("ms", ("time", "optimize.solve_z2")),
}


class Tracer:
    """Installs the wrappers and keeps every span of the run in memory."""

    def __init__(self) -> None:
        # [op, name, parent index or -1, start, end]
        self.spans: list[list] = []
        # (op, counter) -> value
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, sites in SPAN_SITES.items():
            for module, attr in sites:
                self._patch(module, attr, layer, self._span_wrapper)
        for counter, sites in COUNT_SITES.items():
            for module, attr in sites:
                self._patch(module, attr, counter, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, attr: str, name: str, make) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        setattr(owner, attr, make(name, original))
        self._restore.append((owner, attr, original))
        self.present.add(name)

    def _span_wrapper(self, layer: str, fn):
        counters = [(c, get) for c, (src, get) in RESULT_COUNTERS.items() if src == layer]
        self.present.update(c for c, _ in counters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [self.op, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            for counter, get in counters:
                try:
                    self.counts[(self.op, counter)] += get(result)
                except (TypeError, AttributeError, IndexError):
                    # the return value changed shape: the counter is absent
                    self.present.discard(counter)
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op, counter)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(self, ops: int) -> tuple[dict[str, dict], list[str]]:
        """Per-layer metrics over ``ops`` traced ops, and the names absent.

        Times and counts are summed per op and averaged over ops; the two
        selector-space sizes, which span many orders of magnitude, are the
        median over ops instead.  The ratio divides the run's totals.
        """
        time_ms = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(float)
        for span in self.spans:
            duration = (span[4] - span[3]) * 1e3
            time_ms[span[1]] += duration
            self_ms[span[1]] += duration
            calls[span[1]] += 1
            if span[2] >= 0:
                self_ms[self.spans[span[2]][1]] -= duration
        totals = defaultdict(float)
        per_op = defaultdict(lambda: [0.0] * ops)
        for (op, counter), value in self.counts.items():
            totals[counter] += value
            per_op[counter][op] += value
        metrics, absent = {}, []
        for name, (unit, (kind, *sources)) in METRICS.items():
            if not all(source in self.present for source in sources):
                absent.append(name)
                continue
            if kind == "time":
                value = time_ms[sources[0]] / ops
            elif kind == "self":
                value = self_ms[sources[0]] / ops
            elif kind == "calls":
                value = calls[sources[0]] / ops
            elif kind == "counter":
                value = totals[sources[0]] / ops
            elif kind == "median":
                value = float(statistics.median(per_op[sources[0]]))
            else:
                value = totals[sources[0]] / totals[sources[1]] if totals[sources[1]] else 0.0
            metrics[name] = {"value": value, "unit": unit}
        return metrics, absent

    def dump(self, path) -> None:
        """Write every span as one JSON line: op, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent, "start": start, "end": end}) + "\n")
