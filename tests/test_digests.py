"""Byte-identity guard: digests of every CLI output over a fixed corpus.

Each command below runs in-process through ``wpmfre.cli.main`` on every
instance of the corpus: the golden instance, 240 seeded instances over
the whole domain, and a degenerate, a blocked, a conflicting-rows and a
near-conflicting case.  A run is hashed (SHA-256) from its exit code, or
the exception it raised, its stderr, and its stdout without the
``timing_seconds`` line.  ``tests/data/digests.json`` holds the expected
digests; a change that alters an output on purpose regenerates it with

    PYTHONPATH=src python tests/test_digests.py

and says how many digests changed and why.

The digests are host-specific: targets are composed with ``wpm``, which
uses numpy's array ``**``, and that takes a SIMD path on some hosts
(AVX-512) that rounds differently from the C library's ``pow``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys

import numpy as np

from wpmfre import Problem, WpmFreError, WpmParams, problem_dumps, wpm
from wpmfre.cli import main

DIGESTS_PATH = pathlib.Path(__file__).parent / "data" / "digests.json"
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_5x7.json"

COMMANDS = {
    "solve": ["solve", "--limit", "5000"],
    "solve-raw": ["solve", "--no-simplify", "--limit", "5000"],
    "feasibility": ["feasibility"],
    "simplify": ["simplify"],
}

DOMAIN_SEEDS = range(240)

TIMING = re.compile(r'^  "timing_seconds": .*\n', re.MULTILINE)


def domain_instance(seed: int) -> Problem:
    """A feasible instance anywhere in ``0 < w < 1``, ``p > 0``, up to 6x6.

    Draws from one seeded generator, in this order: ``w`` uniform on
    (.02, .98), ``p`` log-uniform on (.05, 50), ``m`` and ``n`` in 1..6,
    ``A`` and a hidden point uniform on [0, 1], and ``c`` uniform on
    [-1, 1].  Each target is the row composed at the hidden point.
    """
    rng = np.random.default_rng(seed)
    w = float(rng.uniform(0.02, 0.98))
    p = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    A = rng.uniform(size=(m, n))
    hidden = rng.uniform(size=n)
    c = rng.uniform(-1.0, 1.0, size=n)
    params = WpmParams(w, p)
    return Problem(A, np.max(wpm(A, hidden[None, :], params), axis=1), c, params)


def corpus() -> dict[str, str]:
    """Instance name -> problem document."""
    P = WpmParams(0.75, 3.0)
    docs = {"golden": GOLDEN_PATH.read_text(encoding="utf-8")}
    for seed in DOMAIN_SEEDS:
        docs[f"domain-{seed:03d}"] = problem_dumps(domain_instance(seed))
    special = {
        "degenerate": Problem(np.full((4, 5), 0.6), np.full(4, 0.6), np.linspace(-1, 1, 5), P),
        "blocked": Problem([[1.0], [0.5]], [0.5, 0.5], [0.0], P),
        "conflicting": Problem([[0.7], [0.7]], [wpm(0.7, 0.3, P), wpm(0.7, 0.6, P)], [0.0], P),
        "near-conflicting": Problem(
            [[0.7], [0.7]], [wpm(0.7, 0.3, P), wpm(0.7, 0.3 + 1e-7, P)], [0.0], P
        ),
    }
    docs.update((name, problem_dumps(prob)) for name, prob in special.items())
    return docs


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = str(main(argv))
        except WpmFreError as exc:  # a raise is an outcome too, and is pinned
            outcome = f"{type(exc).__name__}: {exc}"
    text = "\n".join([outcome, err.getvalue(), TIMING.sub("", out.getvalue())])
    return hashlib.sha256(text.encode()).hexdigest()


def digests(directory: pathlib.Path) -> dict[str, str]:
    """``"<instance> <command>"`` -> digest, over the whole corpus."""
    result = {}
    for name, doc in corpus().items():
        path = directory / f"{name}.json"
        path.write_text(doc, encoding="utf-8")
        for label, (command, *flags) in COMMANDS.items():
            result[f"{name} {label}"] = run_digest([command, str(path), *flags])
    return result


def test_outputs_match_committed_digests(tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert changed == [], f"{len(changed)} outputs changed, first: {changed[:10]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = digests(pathlib.Path(scratch))
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS_PATH}", file=sys.stderr)
