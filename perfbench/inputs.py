"""Workload definitions, seeded input generation and the seeded CSV edit.

Importing this module does not import ``repro``: the benchmark's parent
process (``run.py``) only needs the workload table, while the measured
child processes (``child.py``) generate, load and edit inputs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which user path runs over which input."""

    #: ``"oneshot"`` (load + discover_inds) or ``"watch"`` (session rounds).
    path: str
    #: ``"biosql"`` or ``"openmms"`` generator.
    dataset: str
    entities: int
    annotations_per_entity: int
    satellite_tables: int


WORKLOADS: dict[str, Workload] = {
    # Row-heavy: ~10 MB, 155k rows, 81 attributes, ~705 candidates.  Ingest,
    # profiling and export do ~90% of the work; validation does little.
    "biosql-deep": Workload("oneshot", "biosql", 10000, 4, 25),
    # Attribute-heavy: about the same CSV volume as deep but ~609 attributes
    # and ~54.5k candidates, so candidates and validation carry real weight.
    "openmms-wide": Workload("oneshot", "openmms", 1000, 4, 100),
    # BioSQL ``medium`` (~1 MB) under one incremental DiscoverySession: the
    # same layers used through delta rounds, a warm pool and a spool cache.
    "biosql-watch": Workload("watch", "biosql", 1000, 4, 25),
}

#: Share of a column's rows one watch round rewrites.
EDIT_SHARE = 0.01

_CSV_SPECIALS = frozenset(',"\r\n')


def generate(workload: Workload, seed: int):
    """Build the workload's database with the generator seeded by ``seed``."""
    from repro.datagen import Scale, generate_biosql, generate_openmms

    scale = Scale(
        workload.dataset,
        entities=workload.entities,
        annotations_per_entity=workload.annotations_per_entity,
        satellite_tables=workload.satellite_tables,
    )
    generator = generate_biosql if workload.dataset == "biosql" else generate_openmms
    return generator(scale, seed=seed).db


def edit_round(csv_dir: Path, seed: int, round_no: int) -> None:
    """Rewrite ~1% of the cells of one seeded column, in place.

    The column is a non-key one (neither the declared primary key nor
    declared unique) of one table; each rewritten cell takes another value
    of the same column with the same length, so the value domain, the
    declared type and the file size all stay as they were.  The same
    ``(seed, round_no)`` always makes the same edit to the same state,
    which is what lets the oracle replay a watch loop's directory states.
    """
    rng = random.Random(f"perfbench-edit-{seed}-{round_no}")
    schema = json.loads((csv_dir / "_schema.json").read_text(encoding="utf-8"))
    columns = sorted(
        (table["name"], column["name"])
        for table in schema["tables"]
        for column in table["columns"]
        if not column["unique"] and column["name"] != table["primary_key"]
    )
    rng.shuffle(columns)
    for table, column in columns:
        if _edit_column(csv_dir / f"{table}.csv", column, rng):
            return
    raise RuntimeError(f"no editable column left in {csv_dir}")


def _edit_column(path: Path, column: str, rng: random.Random) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    index = header.index(column)
    by_length: dict[int, list[str]] = {}
    for value in sorted({row[index] for row in body if _editable(row[index])}):
        by_length.setdefault(len(value), []).append(value)
    eligible = [
        i for i, row in enumerate(body)
        if _editable(row[index]) and len(by_length[len(row[index])]) > 1
    ]
    if not eligible:
        return 0
    count = min(len(eligible), max(1, round(len(body) * EDIT_SHARE)))
    picks = rng.sample(eligible, count)
    for i in picks:
        current = body[i][index]
        body[i][index] = rng.choice(
            [v for v in by_length[len(current)] if v != current]
        )
    size = path.stat().st_size
    with open(path, "r+", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *body])
    if path.stat().st_size != size:
        raise RuntimeError(f"edit changed the size of {path}")
    return len(picks)


def _editable(value: str) -> bool:
    return bool(value) and not (_CSV_SPECIALS & set(value))
