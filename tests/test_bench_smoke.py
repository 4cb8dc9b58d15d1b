"""Smoke test of the benchmark: one pass of every workload, checked.

``bench/run.py`` calls ``wpmfre.cli.main`` in-process and ends by printing
one JSON line.  It prints none when the program no longer offers what the
benchmark uses (its functions, options, output keys and output streams),
so a missing or malformed last line is a broken benchmark contract.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]


@pytest.mark.parametrize("workload", [w["name"] for w in WORKLOADS])
def test_one_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0"]
        + ["--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
