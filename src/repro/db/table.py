"""Column-oriented table storage with type and uniqueness enforcement.

Rows are stored as parallel per-column lists — the access pattern of every
consumer in this project (value-set extraction, statistics, query operators)
is columnar, so the storage is too.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.db.schema import Column, TableSchema
from repro.db.types import CellFault, validate_column
from repro.errors import DataError, SchemaError


class Table:
    """One relational table: a schema plus columnar row storage.

    Insertion validates types against the schema, rejects NULLs in
    ``nullable=False`` columns, and enforces declared uniqueness with SQL
    semantics (multiple NULLs are permitted in a unique column).
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: dict[str, list[Any]] = {c.name: [] for c in schema.columns}
        self._unique_seen: dict[str, set[Any]] = {
            c.name: set() for c in schema.columns if c.unique
        }
        self._row_count = 0

    # ------------------------------------------------------------------ meta
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def is_empty(self) -> bool:
        return self._row_count == 0

    def __len__(self) -> int:
        return self._row_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._row_count})"

    # --------------------------------------------------------------- inserts
    def insert(self, row: Mapping[str, Any]) -> None:
        """Insert one row given as a column-name → value mapping.

        Missing columns are filled with NULL; unknown keys are an error so
        that generator bugs surface instead of silently dropping data.
        """
        self._check_known(row)
        self.extend_columns({name: (row.get(name),) for name in self._columns})

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert rows in order; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def extend_columns(self, columns: Mapping[str, Sequence[Any]]) -> int:
        """Append rows given column-wise; returns the number appended.

        ``columns`` maps column names to equally long value sequences;
        missing columns are filled with NULL.  Every rule :meth:`insert`
        applies holds here, checked one column at a time: types (via
        :func:`~repro.db.types.validate_column`), NULLs in ``nullable=False``
        columns, and declared uniqueness within the batch and against
        earlier rows.  All or nothing: on a violation no row is appended,
        and the error raised is the one inserting the rows one by one would
        have raised, for the first offending row.
        """
        self._check_known(columns)
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise DataError(
                f"table {self.name!r}: columns of unequal lengths {sorted(lengths)}"
            )
        count = lengths.pop() if lengths else 0
        prepared: dict[str, Sequence[Any]] = {}
        batch_unique: dict[str, set[Any]] = {}
        # (row, phase, column rank, error): a row is checked for types and
        # NULLs in every column before any uniqueness check (phase 0 < 1).
        faults: list[tuple[int, int, int, DataError]] = []
        for rank, col in enumerate(self.schema.columns):
            values = columns.get(col.name)
            if values is None:
                values = (None,) * count
            stored, fault = validate_column(col.dtype, values)
            if not col.nullable and None in stored:
                row = next(i for i, value in enumerate(stored) if value is None)
                fault = CellFault(
                    row,
                    DataError(
                        f"{self.name}.{col.name}: NULL not allowed (nullable=False)"
                    ),
                )
                stored = stored[:row]
            if fault is not None:
                faults.append((fault.row, 0, rank, fault.error))
            if col.unique:
                fresh, duplicate = self._unique_batch(col.name, stored)
                if duplicate is not None:
                    faults.append((duplicate.row, 1, rank, duplicate.error))
                batch_unique[col.name] = fresh
            prepared[col.name] = stored
        if faults:
            raise min(faults, key=lambda fault: fault[:3])[3]
        for name, stored in prepared.items():
            self._columns[name].extend(stored)
        for name, fresh in batch_unique.items():
            self._unique_seen[name] |= fresh
        self._row_count += count
        return count

    def _check_known(self, names: Iterable[str]) -> None:
        unknown = set(names) - set(self._columns)
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column(s) {sorted(unknown)!r}"
            )

    def _unique_batch(
        self, name: str, stored: Sequence[Any]
    ) -> tuple[set[Any], CellFault | None]:
        """The batch's non-NULL values of a unique column, and its first
        duplicate (within the batch or against earlier rows), if any.

        SQL unique constraints ignore NULLs.
        """
        seen = self._unique_seen[name]
        present = [value for value in stored if value is not None]
        fresh = set(present)
        if len(fresh) == len(present) and seen.isdisjoint(fresh):
            return fresh, None
        batch: set[Any] = set()
        for row, value in enumerate(stored):
            if value is None:
                continue
            if value in seen or value in batch:
                return fresh, CellFault(
                    row,
                    DataError(
                        f"{self.name}.{name}: duplicate value {value!r} violates "
                        "unique constraint"
                    ),
                )
            batch.add(value)
        return fresh, None

    # ----------------------------------------------------------------- reads
    def column_values(self, name: str) -> list[Any]:
        """All values of a column, in row order, including NULLs."""
        if name not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def non_null_values(self, name: str) -> list[Any]:
        """All non-NULL values of a column, in row order (the bag ``v(a)``)."""
        return [v for v in self.column_values(name) if v is not None]

    def distinct_values(self, name: str) -> set[Any]:
        """The set of distinct non-NULL values of a column (``s(a)`` unsorted)."""
        return set(self.non_null_values(name))

    def column_def(self, name: str) -> Column:
        return self.schema.column(name)

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate rows as dictionaries (used by CSV export and tests)."""
        names = self.schema.column_names
        for i in range(self._row_count):
            yield {name: self._columns[name][i] for name in names}

    def row(self, index: int) -> dict[str, Any]:
        if not 0 <= index < self._row_count:
            raise IndexError(index)
        return {name: self._columns[name][index] for name in self.schema.column_names}
