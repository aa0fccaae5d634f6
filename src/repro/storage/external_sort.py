"""Bounded-memory external merge sort with duplicate elimination.

The paper extracts each attribute's values from the database, sorts them and
removes duplicates *once*, then reuses the sorted set for every IND test.  For
attributes whose value set exceeds main memory (PDB's largest attribute has
~152 million distinct values) this must be an external sort: sorted runs are
written to temporary files and merged with a k-way heap merge.

:func:`external_sort` is the single entry point; it returns the sorted,
distinct sequence — a list when one run holds the input, otherwise a stream
merged from spilled runs that cleans up its run files afterwards.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from collections.abc import Iterable, Iterator
from itertools import islice

from repro.storage.codec import escape_line, unescape_line

#: Default in-memory run size, in number of values.  Small enough that tests
#: exercise the multi-run path with modest data, large enough that realistic
#: workloads rarely spill.
DEFAULT_RUN_SIZE = 100_000


def external_sort(
    values: Iterable[str],
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    tmp_dir: str | None = None,
) -> list[str] | Iterator[str]:
    """The distinct values of ``values`` in ascending (code-point) order.

    Holds at most ``max_items_in_memory`` values in memory at once.  The
    first run is read eagerly: if the input fits in it, no file I/O happens
    at all and the sorted list itself is returned, so a consumer that takes
    lists (the spool writer) gets one without a copy.  Otherwise the result
    is a lazy iterator that spills sorted runs to ``tmp_dir`` and merges
    them, removing its run files once exhausted or closed.
    """
    if max_items_in_memory < 1:
        raise ValueError(
            f"max_items_in_memory must be >= 1, got {max_items_in_memory!r}"
        )
    stream = iter(values)
    buffer = list(islice(stream, max_items_in_memory))
    if len(buffer) < max_items_in_memory:
        return sorted(set(buffer))
    return _spill_and_merge(buffer, stream, max_items_in_memory, tmp_dir)


def _spill_and_merge(
    buffer: list[str],
    stream: Iterator[str],
    max_items_in_memory: int,
    tmp_dir: str | None,
) -> Iterator[str]:
    """Spill ``buffer`` and the rest of ``stream`` as runs, then merge them."""
    run_paths: list[str] = []
    try:
        # Runs are filled a chunk at a time; every chunk but the last is
        # full, exactly as when spilling on reaching the threshold value by
        # value.
        while buffer:
            run_paths.append(_write_run(buffer, tmp_dir))
            buffer.clear()
            buffer.extend(islice(stream, max_items_in_memory))
        yield from _merge_runs(run_paths)
    finally:
        for path in run_paths:
            try:
                os.unlink(path)
            except OSError:
                pass


def _write_run(buffer: list[str], tmp_dir: str | None) -> str:
    """Sort + dedupe one run in memory and spill it to a temporary file."""
    fd, path = tempfile.mkstemp(prefix="repro-sort-run-", suffix=".txt", dir=tmp_dir)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        for value in sorted(set(buffer)):
            fh.write(escape_line(value))
            fh.write("\n")
    return path


def _iter_run(path: str) -> Iterator[str]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield unescape_line(line.rstrip("\n"))


def _merge_runs(run_paths: list[str]) -> Iterator[str]:
    """K-way merge of sorted runs with streaming duplicate elimination."""
    merged = heapq.merge(*(_iter_run(p) for p in run_paths))
    previous: str | None = None
    first = True
    for value in merged:
        if first or value != previous:
            yield value
        previous = value
        first = False
