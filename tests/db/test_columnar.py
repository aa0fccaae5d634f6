"""The columnar ingest → profile → export path against a row-wise oracle.

CSV loading parses and validates a column at a time
(:func:`~repro.db.types.parse_column`, :meth:`Table.extend_columns`), and
profiling and export render through one type dispatch per column
(:func:`~repro.storage.codec.render_column`).  The row-at-a-time path they
replaced is vendored below as the oracle -- one ``parse_typed`` per cell,
one validated insert per row, one ``render_value`` per value -- and the
two must agree exactly:

* on success: table contents (types included), :class:`ColumnStats`,
  per-attribute fingerprints, and the spool directory byte for byte,
  ``index.json`` included;
* on failure: the same exception class and message, the one the row path
  raised for the first offending row.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from zlib import crc32

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.db.csvio import load_csv_directory
from repro.db.schema import AttributeRef
from repro.db.stats import ColumnStats, collect_column_stats
from repro.db.table import Table
from repro.db.types import infer_type, parse_typed, validate_value
from repro.errors import CsvFormatError, DataError
from repro.storage.codec import render_value
from repro.storage.exporter import export_database
from repro.storage.external_sort import external_sort
from repro.storage.sorted_sets import FORMAT_BINARY, SpoolDirectory
from repro.storage.spool_cache import attribute_fingerprints


# ------------------------------------------------------------------ oracle
class _RowTable:
    """The row-wise ``Table.insert`` of the previous implementation."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.columns = {c.name: [] for c in schema.columns}
        self.unique_seen = {c.name: set() for c in schema.columns if c.unique}
        self.name = schema.name

    def insert(self, row):
        prepared = {}
        for col in self.schema.columns:
            value = validate_value(col.dtype, row.get(col.name))
            if value is None and not col.nullable:
                raise DataError(
                    f"{self.name}.{col.name}: NULL not allowed (nullable=False)"
                )
            prepared[col.name] = value
        for name, seen in self.unique_seen.items():
            value = prepared[name]
            if value is not None and value in seen:
                raise DataError(
                    f"{self.name}.{name}: duplicate value {value!r} violates "
                    "unique constraint"
                )
        for name, seen in self.unique_seen.items():
            if prepared[name] is not None:
                seen.add(prepared[name])
        for name, value in prepared.items():
            self.columns[name].append(value)


def _legacy_load(path: Path) -> list[_RowTable]:
    """The row-wise CSV loader: read rows, parse and insert one at a time."""
    schema_path = path / "_schema.json"
    if schema_path.exists():
        doc = json.loads(schema_path.read_text(encoding="utf-8"))
        plan = [
            (
                TableSchema(
                    t["name"],
                    [
                        Column(
                            c["name"],
                            DataType(c["type"]),
                            nullable=c["nullable"],
                            unique=c["unique"],
                        )
                        for c in t["columns"]
                    ],
                ),
                _legacy_rows(path / f"{t['name']}.csv"),
            )
            for t in doc["tables"]
        ]
    else:
        plan = []
        for csv_path in sorted(path.glob("*.csv")):
            header, rows = _legacy_rows(csv_path)
            columns = [
                Column(name, infer_type([r[i] if r[i] != "" else None for r in rows]))
                for i, name in enumerate(header)
            ]
            plan.append((TableSchema(csv_path.stem, columns), (header, rows)))
    tables = []
    for schema, (_header, rows) in plan:
        table = _RowTable(schema)
        dtypes = [c.dtype for c in schema.columns]
        for row in rows:
            table.insert(
                {
                    name: parse_typed(dtype, cell)
                    for name, dtype, cell in zip(schema.column_names, dtypes, row)
                }
            )
        tables.append(table)
    return tables


def _legacy_rows(csv_path: Path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _legacy_profile(ref: AttributeRef, dtype: DataType, values) -> ColumnStats:
    """The per-value ``profile_column`` of the previous implementation."""
    null_count = 0
    distinct: set[str] = set()
    min_len = max_len = numeric_min = numeric_max = None
    all_numeric = True
    for value in values:
        if value is None:
            null_count += 1
            continue
        rendered = render_value(value)
        distinct.add(rendered)
        length = len(rendered)
        if min_len is None or length < min_len:
            min_len = length
        if max_len is None or length > max_len:
            max_len = length
        if all_numeric and isinstance(value, (int, float)):
            numeric = float(value)
            if numeric_min is None or numeric < numeric_min:
                numeric_min = numeric
            if numeric_max is None or numeric > numeric_max:
                numeric_max = numeric
        else:
            all_numeric = False
    checksum = 0
    for rendered in distinct:
        checksum ^= crc32(rendered.encode("utf-8"))
    return ColumnStats(
        ref=ref,
        dtype=dtype,
        row_count=len(values),
        null_count=null_count,
        distinct_count=len(distinct),
        min_value=min(distinct) if distinct else None,
        max_value=max(distinct) if distinct else None,
        min_length=min_len,
        max_length=max_len,
        numeric_min=numeric_min if all_numeric else None,
        numeric_max=numeric_max if all_numeric else None,
        value_checksum=checksum,
    )


def _legacy_export(tables: list[_RowTable], root: str) -> None:
    """The per-value render → external sort → spool export, sequential."""
    spool = SpoolDirectory.create(root, format=FORMAT_BINARY)
    for table in sorted(tables, key=lambda t: t.name):
        if not table.columns[table.schema.column_names[0]]:
            continue  # empty tables contribute no attributes
        for col in table.schema.columns:
            if col.dtype.is_lob:
                continue
            ref = AttributeRef(table.name, col.name)
            present = [v for v in table.columns[col.name] if v is not None]
            svf = spool.add_values(
                ref,
                external_sort(render_value(v) for v in present),
                dtype=col.dtype.value,
            )
            if svf.is_empty:
                spool.discard(ref)
    spool.save_index()


# ----------------------------------------------------------------- helpers
def _typed(values) -> list[tuple[str, str]]:
    """Values with their Python types, NaN- and -0.0-safe."""
    return [(type(v).__name__, repr(v)) for v in values]


def _stats_key(stats: ColumnStats) -> str:
    return repr(dataclasses.astuple(stats))


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


def _outcome(fn):
    """``("ok", value)`` or ``("error", class, message)``."""
    try:
        return ("ok", fn())
    except (DataError, CsvFormatError) as exc:
        return ("error", type(exc), str(exc))


def _assert_same_pipeline(db: Database, oracle: list[_RowTable]) -> None:
    """Contents, stats, fingerprints and spool bytes agree with the oracle."""
    by_name = {t.name: t for t in oracle}
    assert sorted(db.table_names) == sorted(by_name)
    for name, legacy in by_name.items():
        table = db.table(name)
        for col in legacy.schema.columns:
            assert _typed(table.column_values(col.name)) == _typed(
                legacy.columns[col.name]
            ), f"{name}.{col.name}"
    stats = collect_column_stats(db)
    legacy_stats = {
        ref: _legacy_profile(
            ref,
            by_name[ref.table].schema.column(ref.column).dtype,
            by_name[ref.table].columns[ref.column],
        )
        for ref in stats
    }
    assert {r: _stats_key(s) for r, s in stats.items()} == {
        r: _stats_key(s) for r, s in legacy_stats.items()
    }
    assert attribute_fingerprints(stats) == attribute_fingerprints(legacy_stats)
    with tempfile.TemporaryDirectory() as scratch:
        export_database(db, os.path.join(scratch, "columnar"))
        _legacy_export(oracle, os.path.join(scratch, "rows"))
        assert _tree_bytes(os.path.join(scratch, "columnar")) == _tree_bytes(
            os.path.join(scratch, "rows")
        )


def _write_csv_dir(path: Path, tables, with_schema: bool) -> None:
    """``tables``: ``[(name, [(col, dtype, nullable, unique)], rows)]``."""
    path.mkdir(parents=True, exist_ok=True)
    doc = {"database": "prop", "tables": []}
    for name, columns, rows in tables:
        with open(path / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([c[0] for c in columns])
            writer.writerows(rows)
        doc["tables"].append(
            {
                "name": name,
                "primary_key": None,
                "foreign_keys": [],
                "columns": [
                    {"name": c, "type": d.value, "nullable": n, "unique": u}
                    for c, d, n, u in columns
                ],
            }
        )
    if with_schema:
        (path / "_schema.json").write_text(json.dumps(doc), encoding="utf-8")


# -------------------------------------------------------------- strategies
_unicode = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)

#: Cell texts per declared type: mostly valid, a few that must be rejected.
_CELLS = {
    DataType.INTEGER: st.sampled_from(
        ["0", "+5", "007", "-0", "-12", "12", "", "98765432109876543210"] * 4
        + ["1.5", "x", "12\n", " 7"]
    ),
    DataType.FLOAT: st.sampled_from(
        ["1.0", "-0.0", "0", ".5", "5.", "1e3", "-2.5E-3", "", "007.50"] * 4
        + ["nan", "inf", "1.0\n"]
    ),
    DataType.DATE: st.sampled_from(
        ["2020-01-01", "1999-12-31", "", "2004-07-15"] * 4
        + ["2020-1-1", "2020-01-01\n"]
    ),
    DataType.VARCHAR: _unicode,
    DataType.CLOB: _unicode,
    DataType.BLOB: st.sampled_from(["", "00", "ff", "0aFF", "deadbeef"] * 4 + ["abc", "zz"]),
}


@st.composite
def csv_tables(draw):
    tables = []
    for t in range(draw(st.integers(1, 2))):
        n_cols = draw(st.integers(1, 4))
        columns = [
            (
                f"c{i}",
                draw(st.sampled_from(list(_CELLS))),
                draw(st.booleans()),
                draw(st.sampled_from([False, False, False, True])),
            )
            for i in range(n_cols)
        ]
        n_rows = draw(st.integers(0, 12))
        rows = [
            [draw(_CELLS[dtype]) for _c, dtype, _n, _u in columns]
            for _ in range(n_rows)
        ]
        tables.append((f"t{t}", columns, rows))
    return tables


#: Stored values per type for in-memory columns (the generators' path).
_VALUES = {
    DataType.INTEGER: st.integers(-(10**20), 10**20),
    DataType.FLOAT: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([1.0, -0.0, 0.0, float("nan"), float("inf"), -1e300]),
        st.integers(-5, 5),
    ),
    DataType.VARCHAR: _unicode,
    DataType.CLOB: _unicode,
    DataType.DATE: st.sampled_from(
        ["2020-01-01", "1999-12-31", "2004-07-15"] * 5 + ["2020-1-1", "2020-01-01\n"]
    ),
    DataType.BLOB: st.binary(max_size=4),
}


@st.composite
def typed_tables(draw):
    n_cols = draw(st.integers(1, 4))
    columns = [
        Column(
            f"c{i}",
            draw(st.sampled_from(list(_VALUES))),
            nullable=draw(st.booleans()),
            unique=draw(st.sampled_from([False, False, True])),
        )
        for i in range(n_cols)
    ]
    n_rows = draw(st.integers(0, 12))
    null_only = draw(st.booleans())
    rows = []
    for _ in range(n_rows):
        row = {}
        for col in columns:
            if draw(st.integers(0, 4)) == 0 or (null_only and col.name == "c0"):
                row[col.name] = None
            elif draw(st.integers(0, 30)) == 0:
                row[col.name] = True  # a generator bug: bools are rejected
            else:
                row[col.name] = draw(_VALUES[col.dtype])
        rows.append(row)
    return TableSchema("t", columns), rows


_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ------------------------------------------------------------------- tests
class TestAgainstRowOracle:
    @_SETTINGS
    @given(csv_tables(), st.booleans())
    def test_csv_load_matches_row_oracle(self, tables, with_schema):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "dump"
            _write_csv_dir(path, tables, with_schema)
            columnar = _outcome(lambda: load_csv_directory(path, name="prop"))
            rows = _outcome(lambda: _legacy_load(path))
        event(f"load: {rows[0]}")
        assert columnar[0] == rows[0], (columnar, rows)
        if columnar[0] == "error":
            assert columnar == rows
        else:
            _assert_same_pipeline(columnar[1], rows[1])

    @_SETTINGS
    @given(typed_tables())
    def test_extend_columns_matches_row_inserts(self, spec):
        schema, rows = spec
        db = Database("prop")
        table = db.create_table(schema)
        columnar = _outcome(
            lambda: table.extend_columns(
                {c.name: [row[c.name] for row in rows] for c in schema.columns}
            )
        )
        oracle = _RowTable(schema)

        def insert_all():
            for row in rows:
                oracle.insert(row)

        legacy = _outcome(insert_all)
        event(f"insert: {legacy[0]}")
        assert columnar[0] == legacy[0], (columnar, legacy)
        if columnar[0] == "error":
            assert columnar == legacy
            assert table.row_count == 0  # all or nothing
        else:
            _assert_same_pipeline(db, [oracle])


def _schema(*columns: Column) -> TableSchema:
    return TableSchema("t", list(columns))


def _both_errors(tmp_path, columns, rows):
    """The columnar and row-wise load errors for one declared CSV table."""
    path = tmp_path / "dump"
    spec = [(c.name, c.dtype, c.nullable, c.unique) for c in columns]
    _write_csv_dir(path, [("t", spec, rows)], with_schema=True)
    with pytest.raises(DataError) as columnar:
        load_csv_directory(path)
    with pytest.raises(DataError) as legacy:
        _legacy_load(path)
    return columnar.value, legacy.value


class TestErrorEquivalence:
    """Each kind of bad input raises what the row path raised first."""

    @pytest.mark.parametrize(
        "columns, rows, message",
        [
            pytest.param(
                [Column("a", DataType.INTEGER)],
                [["1"], ["x1"], ["y2"]],
                "cannot parse 'x1' as INTEGER",
                id="unparsable-cell",
            ),
            pytest.param(
                [Column("a", DataType.VARCHAR, nullable=False)],
                [["p"], [""], [""]],
                "t.a: NULL not allowed (nullable=False)",
                id="null-in-not-nullable",
            ),
            pytest.param(
                [Column("a", DataType.INTEGER, unique=True)],
                [["1"], ["2"], ["1"], ["2"]],
                "t.a: duplicate value 1 violates unique constraint",
                id="duplicate-within-file",
            ),
            pytest.param(
                [Column("d", DataType.DATE)],
                [["2020-01-01"], ["2020-01-01\n"]],
                "DATE values must be ISO-8601 YYYY-MM-DD, got '2020-01-01\\n'",
                id="bad-date",
            ),
            pytest.param(
                # Row 2 breaks b's NULL rule before row 3's bad cell in a.
                [Column("a", DataType.INTEGER), Column("b", DataType.VARCHAR, nullable=False)],
                [["1", "x"], ["2", ""], ["oops", "y"]],
                "t.b: NULL not allowed (nullable=False)",
                id="earliest-row-wins-across-columns",
            ),
            pytest.param(
                # One row: every cell is parsed before any constraint.
                [Column("a", DataType.VARCHAR, nullable=False), Column("b", DataType.FLOAT)],
                [["", "nan"]],
                "cannot parse 'nan' as FLOAT",
                id="parse-before-constraints-in-a-row",
            ),
            pytest.param(
                # One row: types and NULLs of every column before uniqueness.
                [Column("a", DataType.INTEGER, unique=True), Column("b", DataType.INTEGER, nullable=False)],
                [["1", "1"], ["1", ""]],
                "t.b: NULL not allowed (nullable=False)",
                id="null-before-unique-in-a-row",
            ),
            pytest.param(
                [Column("a", DataType.INTEGER, unique=True), Column("b", DataType.INTEGER, unique=True)],
                [["1", "1"], ["2", "2"], ["3", "2"], ["1", "4"]],
                "t.b: duplicate value 2 violates unique constraint",
                id="first-duplicate-row-wins",
            ),
        ],
    )
    def test_load_error_matches_row_path(self, tmp_path, columns, rows, message):
        columnar, legacy = _both_errors(tmp_path, columns, rows)
        assert type(columnar) is type(legacy) is DataError
        assert str(columnar) == str(legacy) == message

    def _table(self) -> Table:
        return Table(
            _schema(
                Column("id", DataType.INTEGER, nullable=False, unique=True),
                Column("name", DataType.VARCHAR),
            )
        )

    def test_duplicate_against_earlier_inserts(self):
        table = self._table()
        table.insert({"id": 1, "name": "a"})
        with pytest.raises(DataError) as columnar:
            table.extend_columns({"id": [2, 1], "name": ["b", "c"]})
        oracle = _RowTable(table.schema)
        oracle.insert({"id": 1, "name": "a"})
        oracle.insert({"id": 2, "name": "b"})
        with pytest.raises(DataError) as legacy:
            oracle.insert({"id": 1, "name": "c"})
        assert str(columnar.value) == str(legacy.value)
        assert "duplicate value 1" in str(columnar.value)

    def test_bool_from_a_generator(self):
        table = self._table()
        with pytest.raises(DataError) as columnar:
            table.extend_columns({"id": [1, True]})
        with pytest.raises(DataError) as legacy:
            validate_value(DataType.INTEGER, True)
        assert type(columnar.value) is DataError
        assert str(columnar.value) == str(legacy.value)

    def test_bad_date_from_a_generator(self):
        table = Table(_schema(Column("d", DataType.DATE)))
        with pytest.raises(DataError) as columnar:
            table.extend_columns({"d": ["2020-01-01", "15.07.2004"]})
        with pytest.raises(DataError) as legacy:
            validate_value(DataType.DATE, "15.07.2004")
        assert str(columnar.value) == str(legacy.value)
        assert table.row_count == 0

    def test_failed_extend_leaves_the_table_unchanged(self):
        table = self._table()
        table.extend_columns({"id": [1, 2], "name": ["a", "b"]})
        with pytest.raises(DataError, match="duplicate value 2"):
            table.extend_columns({"id": [3, 4, 2], "name": ["c", "d", "e"]})
        assert table.row_count == 2
        assert table.column_values("id") == [1, 2]
        assert table.column_values("name") == ["a", "b"]
        # 3 and 4 were never remembered as taken.
        assert table.extend_columns({"id": [3, 4], "name": [None, None]}) == 2
        assert table.column_values("id") == [1, 2, 3, 4]

    def test_unequal_column_lengths_rejected(self):
        table = self._table()
        with pytest.raises(DataError, match="unequal lengths"):
            table.extend_columns({"id": [1, 2], "name": ["a"]})
        assert table.row_count == 0

    def test_missing_columns_are_null(self):
        table = self._table()
        assert table.extend_columns({"id": [7, 8]}) == 2
        assert table.column_values("name") == [None, None]
