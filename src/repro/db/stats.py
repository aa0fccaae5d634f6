"""Per-column statistics: the catalog metadata behind candidate generation.

The paper's candidate generation (Sec. 2) and pretests need, per attribute:
row/null counts, the number of distinct values (cardinality pretest), whether
the column is unique over its non-NULL values (referenced attributes must be),
and the minimum/maximum *rendered* value (max-value pretest, Sec. 4.1).
Everything is computed in one pass per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor
from zlib import crc32

from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.db.types import DataType
from repro.storage.codec import render_column


@dataclass(frozen=True)
class ColumnStats:
    """Profile of one attribute, as the discovery pipeline consumes it."""

    ref: AttributeRef
    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: str | None  # rendered; None iff the column is all-NULL/empty
    max_value: str | None
    min_length: int | None  # length of shortest rendered value
    max_length: int | None
    #: Numeric bounds, present only when every non-NULL value is numeric.
    #: The rendered min/max above follow the paper's lexicographic order
    #: ("99" > "150"); range analysis (Sec. 5) needs the numeric ones.
    numeric_min: float | None = None
    numeric_max: float | None = None
    #: Order-insensitive CRC32 fold of the rendered distinct value set.
    #: Counts and extrema alone cannot see every edit (swap a mid-range
    #: value for another of equal length and they all stay put); the spool
    #: cache needs a content signal, and this one is computed from the
    #: distinct set the profiler builds anyway.
    value_checksum: int = 0

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @property
    def is_empty(self) -> bool:
        """True when the column holds no non-NULL value at all."""
        return self.non_null_count == 0

    @property
    def is_unique(self) -> bool:
        """Measured uniqueness over non-NULL values (SQL UNIQUE semantics).

        The paper profiles *undocumented* schemas, so uniqueness is measured
        from the instance, not read from declarations.  Empty columns are not
        unique for our purposes — they cannot be referenced attributes since
        referenced attributes must be non-empty.
        """
        return self.non_null_count > 0 and self.distinct_count == self.non_null_count


def profile_column(db: Database, ref: AttributeRef) -> ColumnStats:
    """Compute :class:`ColumnStats` for one attribute.

    Renders the column once, dispatching on its type
    (:func:`~repro.storage.codec.render_column`), into its distinct set;
    only that one set is held, and it is dropped on return.
    """
    table = db.table(ref.table)
    column = table.column_def(ref.column)
    row_count = table.row_count
    present = table.non_null_values(ref.column)
    distinct = set(render_column(column.dtype.value, present))
    numeric_min: float | None = None
    numeric_max: float | None = None
    if present and column.dtype is DataType.INTEGER:
        # float() is monotone, so it commutes with min and max.
        numeric_min, numeric_max = float(min(present)), float(max(present))
    elif present and column.dtype is DataType.FLOAT:
        # A running loop, not min()/max(): with NaNs present the result
        # depends on the comparison order, which stays the row order.
        for value in present:
            numeric = float(value)
            if numeric_min is None or numeric < numeric_min:
                numeric_min = numeric
            if numeric_max is None or numeric > numeric_max:
                numeric_max = numeric
    lengths = set(map(len, distinct))
    return ColumnStats(
        ref=ref,
        dtype=column.dtype,
        row_count=row_count,
        null_count=row_count - len(present),
        distinct_count=len(distinct),
        min_value=min(distinct) if distinct else None,
        max_value=max(distinct) if distinct else None,
        min_length=min(lengths) if lengths else None,
        max_length=max(lengths) if lengths else None,
        numeric_min=numeric_min,
        numeric_max=numeric_max,
        value_checksum=reduce(xor, map(crc32, map(str.encode, distinct)), 0),
    )


def collect_column_stats(
    db: Database, include_empty_tables: bool = False
) -> dict[AttributeRef, ColumnStats]:
    """Profile every attribute of the database.

    Note the distinct-count here reflects TO_CHAR rendering, i.e. it is the
    cardinality of ``s(a)`` exactly as the external algorithms will see it.
    """
    return {
        ref: profile_column(db, ref)
        for ref in db.attributes(include_empty_tables=include_empty_tables)
    }
