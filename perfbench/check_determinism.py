"""The benchmark's own tests: traced counts repeat, other seeds stay correct.

Run from the root of a checkout::

    python3 -m pytest perfbench/check_determinism.py -q

The file name keeps these tests out of the repository's default test
collection: each case runs the benchmark end to end, several minutes in all.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Counts the program makes; with one seed they must repeat exactly.
COUNTS = (
    "candidates.raw",
    "candidates.surviving",
    "storage.values_scanned",
    "storage.values_written",
    "validate.items_read",
    "validate.bytes_read",
    "validate.comparisons",
    "delta.revalidated",
    "cache.files_reused",
)


@functools.cache
def traced_run(workload: str, seed: int, attempt: int) -> dict:
    """One ``--trace 1`` run's metric values (``attempt`` forces a rerun)."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0, proc.stderr[-2000:]
    return {name: metric["value"] for name, metric in doc["metrics"].items()}


@pytest.mark.parametrize("workload", ["biosql-deep", "openmms-wide", "biosql-watch"])
def test_counts_repeat_with_one_seed(workload):
    first = traced_run(workload, 7, 0)
    second = traced_run(workload, 7, 1)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    assert first["error_rate"] == second["error_rate"] == 0


def test_second_seed_changes_inputs_and_stays_correct():
    base = traced_run("biosql-watch", 7, 0)
    other = traced_run("biosql-watch", 8, 0)
    assert other["error_rate"] == 0
    assert any(base[n] != other[n] for n in COUNTS)
