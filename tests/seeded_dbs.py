"""Seeded database and spool builders shared across the test suite.

These used to be copy-pasted into their consuming test modules; every
suite that wants a deterministic messy database — agreement matrices,
adaptive routing, incremental stress — imports them
from this one place (``from seeded_dbs import ...`` resolves because
pytest puts ``tests/`` on ``sys.path`` when it loads ``tests/conftest.py``;
a plain module rather than the conftest itself, because ``conftest`` is an
ambiguous module name once the benchmark suite's conftest is loaded too).
"""

from __future__ import annotations

import random

from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.storage.sorted_sets import SpoolDirectory

# Small value pools force collisions across columns (satisfied INDs) while
# awkward strings exercise the codecs; integers collide with their rendered
# string forms (the paper's TO_CHAR semantics).
STRING_POOL = [
    "a", "b", "ab", "0", "1", "7", "42",
    "x\ny", "back\\slash", "nul\x00byte", "tab\tchar", "",
]


def build_random_db(seed: int) -> Database:
    """A deterministic random database of 1-3 tables with messy values.

    Every table gets an id-like first column (unique, drawn from overlapping
    integer ranges so inter-table INDs arise) plus random payload columns, so
    the unique-ref candidate generator always has work to do.
    """
    rng = random.Random(seed)
    db = Database(f"agree{seed}")
    for t in range(rng.randint(1, 3)):
        columns = [Column("id", DataType.INTEGER, unique=True)]
        columns += [
            Column(
                f"c{i}",
                rng.choice([DataType.INTEGER, DataType.VARCHAR]),
            )
            for i in range(rng.randint(1, 3))
        ]
        table = db.create_table(TableSchema(f"t{t}", columns))
        offset = rng.choice([0, 0, 3, 10])
        for row_index in range(rng.randint(1, 30)):
            row = {"id": offset + row_index}
            for col in columns[1:]:
                roll = rng.random()
                if roll < 0.15:
                    row[col.name] = None
                elif col.dtype is DataType.INTEGER:
                    # Overlaps the id ranges: integer payloads are often
                    # included in some table's id column, and vice versa.
                    row[col.name] = rng.randint(0, 12)
                else:
                    row[col.name] = rng.choice(STRING_POOL)
            table.insert(row)
    return db


def build_db(seed: int = 0) -> Database:
    """Two tables with overlapping integer ranges: INDs in both directions."""
    db = Database(f"pipeline{seed}")
    t0 = db.create_table(
        TableSchema(
            "t0",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
                Column("c1", DataType.VARCHAR),
            ],
        )
    )
    t1 = db.create_table(
        TableSchema(
            "t1",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    for row in range(20):
        t0.insert({"id": row, "c0": (row * 7 + seed) % 12, "c1": f"v{row % 5}"})
    for row in range(12):
        t1.insert({"id": row + 3, "c0": row % 12})
    return db


def spool_with(tmp_path, sizes: dict[str, int]) -> SpoolDirectory:
    """A binary spool with one single-table attribute per entry of ``sizes``."""
    spool = SpoolDirectory.create(tmp_path / "spool", format="binary")
    for name, count in sizes.items():
        ref = AttributeRef("t", name)
        spool.add_values(ref, [f"{name}-{i:06d}" for i in range(count)])
    spool.save_index()
    return spool
