"""Smoke test of the benchmark: one pass of every workload, checked.

``bench/run.py`` calls ``wpmfre.cli.main`` in-process and ends by printing
one JSON line.  It prints none when the program no longer offers what the
benchmark uses (its functions, options, output keys and output streams),
so a missing or malformed last line is a broken benchmark contract.  The
line must be strict JSON (no ``NaN`` or ``Infinity``), every metric
finite, and the metric names exactly those ``BENCHMARK.json`` declares:
``end_to_end`` for ``--trace 0`` and ``per_layer`` for ``--trace 1``.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {
    0: [m["name"] for m in BENCHMARK["end_to_end"]],
    1: [m["name"] for m in BENCHMARK["per_layer"]],
}


def reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


def one_pass(workload, trace):
    """Run one pass of ``workload`` and check its result line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0"]
        + ["--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(METRICS[trace])
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    one_pass(workload, trace=0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_is_correct(workload):
    one_pass(workload, trace=1)
