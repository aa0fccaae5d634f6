"""CSV import/export for whole databases.

A database is persisted as a directory with one ``<table>.csv`` per table and
a ``_schema.json`` sidecar describing types, primary keys and (for generated
gold-standard datasets) foreign keys.  Loading works with or without the
sidecar: without it, column types are inferred from the data — exactly the
situation the paper targets, an undocumented dump with no declared
constraints.

Conventions: CSV cells are text; the empty cell is NULL.  BLOB columns are
hex-encoded.  This convention makes the empty string indistinguishable from
NULL, which matches the behaviour of Oracle (the paper's RDBMS), where
``'' IS NULL`` holds.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.table import Table
from repro.db.types import DataType, infer_type, parse_column
from repro.errors import CsvFormatError

_SCHEMA_FILE = "_schema.json"


def write_csv_directory(db: Database, directory: str | Path) -> Path:
    """Dump ``db`` into ``directory`` (created if needed); returns the path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    schema_doc = {"database": db.name, "tables": []}
    for table in db.tables():
        schema_doc["tables"].append(_schema_to_doc(table.schema))
        with open(path / f"{table.name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.schema.column_names)
            for row in table.rows():
                writer.writerow(
                    [_cell(row[name]) for name in table.schema.column_names]
                )
    with open(path / _SCHEMA_FILE, "w", encoding="utf-8") as fh:
        json.dump(schema_doc, fh, indent=2, sort_keys=True)
    return path


def load_csv_directory(directory: str | Path, name: str | None = None) -> Database:
    """Load a database from a CSV directory.

    With ``_schema.json`` present the declared types/keys are honoured;
    otherwise each ``*.csv`` becomes a table with inferred column types and no
    constraints (the undocumented-source scenario).
    """
    path = Path(directory)
    if not path.is_dir():
        raise CsvFormatError(f"{path} is not a directory")
    schema_path = path / _SCHEMA_FILE
    if schema_path.exists():
        return _load_with_schema(path, schema_path, name)
    return _load_inferred(path, name)


# ----------------------------------------------------------------- internals
def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _schema_to_doc(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "primary_key": schema.primary_key,
        "columns": [
            {
                "name": c.name,
                "type": c.dtype.value,
                "nullable": c.nullable,
                "unique": c.unique,
            }
            for c in schema.columns
        ],
        "foreign_keys": [
            {
                "column": fk.column,
                "ref_table": fk.ref_table,
                "ref_column": fk.ref_column,
            }
            for fk in schema.foreign_keys
        ],
    }


def _doc_to_schema(doc: dict) -> TableSchema:
    try:
        columns = [
            Column(
                c["name"],
                DataType(c["type"]),
                nullable=c.get("nullable", True),
                unique=c.get("unique", False),
            )
            for c in doc["columns"]
        ]
        fks = [
            ForeignKey(doc["name"], fk["column"], fk["ref_table"], fk["ref_column"])
            for fk in doc.get("foreign_keys", [])
        ]
        return TableSchema(
            doc["name"],
            columns,
            primary_key=doc.get("primary_key"),
            foreign_keys=fks,
        )
    except (KeyError, ValueError) as exc:
        raise CsvFormatError(f"malformed schema entry: {exc}") from exc


def _read_columns(csv_path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """Read a CSV file and transpose it into one tuple of cells per column.

    The row lists die with this call; only the columns outlive it.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{csv_path} is empty (missing header)") from None
        rows = list(reader)
    if set(map(len, rows)) - {len(header)}:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{csv_path}:{lineno}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
    if not rows:
        return header, [() for _ in header]
    return header, list(zip(*rows))


def _fill_table(table: Table, columns: list[tuple[str, ...]]) -> None:
    """Parse each CSV column with its type's routine, then bulk-append them.

    Rules and errors are those of inserting the parsed rows one by one:
    the first offending row decides, and a row's cells are all parsed
    before any constraint is checked.  Each column's cells are released
    as soon as it is parsed.
    """
    parsed: dict[str, list] = {}
    first_fault = None
    for index, col in enumerate(table.schema.columns):
        values, fault = parse_column(col.dtype, columns[index])
        columns[index] = ()
        if fault is not None and (first_fault is None or fault.row < first_fault.row):
            first_fault = fault
        parsed[col.name] = values
    if first_fault is not None:
        # The rows before the first unparsable cell may still break a
        # constraint, which would have been reported first.  The table is
        # freshly created, so a scratch copy of it judges them.
        Table(table.schema).extend_columns(
            {name: values[: first_fault.row] for name, values in parsed.items()}
        )
        raise first_fault.error
    table.extend_columns(parsed)


def _load_with_schema(path: Path, schema_path: Path, name: str | None) -> Database:
    with open(schema_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    db = Database(name or doc.get("database", path.name))
    for table_doc in doc.get("tables", []):
        schema = _doc_to_schema(table_doc)
        table = db.create_table(schema)
        csv_path = path / f"{schema.name}.csv"
        if not csv_path.exists():
            raise CsvFormatError(f"schema declares {schema.name!r} but {csv_path} "
                                 "is missing")
        header, columns = _read_columns(csv_path)
        if header != schema.column_names:
            raise CsvFormatError(
                f"{csv_path}: header {header!r} does not match schema columns "
                f"{schema.column_names!r}"
            )
        _fill_table(table, columns)
    return db


def _load_inferred(path: Path, name: str | None) -> Database:
    db = Database(name or path.name)
    csv_files = sorted(p for p in path.glob("*.csv"))
    if not csv_files:
        raise CsvFormatError(f"{path} contains no .csv files")
    for csv_path in csv_files:
        header, columns = _read_columns(csv_path)
        if len(set(header)) != len(header):
            raise CsvFormatError(f"{csv_path}: duplicate column names in header")
        schema = TableSchema(
            csv_path.stem,
            [
                Column(col_name, infer_type([cell or None for cell in cells]))
                for col_name, cells in zip(header, columns)
            ],
        )
        table = db.create_table(schema)
        _fill_table(table, columns)
    return db
