"""Tests for CSV round-tripping and schema inference."""

import json

import pytest

from repro.db.csvio import load_csv_directory, write_csv_directory
from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import DataType
from repro.errors import CsvFormatError, DataError


@pytest.fixture()
def sample_db() -> Database:
    db = Database("sample")
    db.create_table(
        TableSchema(
            "p",
            [
                Column("id", DataType.INTEGER),
                Column("label", DataType.VARCHAR),
                Column("weight", DataType.FLOAT),
                Column("born", DataType.DATE),
                Column("payload", DataType.BLOB),
            ],
            primary_key="id",
        )
    )
    db.create_table(
        TableSchema(
            "c",
            [Column("pid", DataType.INTEGER)],
            foreign_keys=[ForeignKey("c", "pid", "p", "id")],
        )
    )
    db.table("p").insert(
        {"id": 1, "label": "first, with comma", "weight": 1.5,
         "born": "2004-01-02", "payload": b"\x01\x02"}
    )
    db.table("p").insert(
        {"id": 2, "label": None, "weight": None, "born": None, "payload": None}
    )
    db.table("c").insert({"pid": 1})
    return db


class TestRoundTrip:
    def test_roundtrip_preserves_data(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        loaded = load_csv_directory(path)
        assert loaded.name == "sample"
        assert loaded.table("p").row(0) == sample_db.table("p").row(0)
        assert loaded.table("p").row(1) == sample_db.table("p").row(1)

    def test_roundtrip_preserves_schema(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        loaded = load_csv_directory(path)
        assert loaded.table("p").schema.primary_key == "id"
        assert loaded.table("p").column_def("payload").dtype is DataType.BLOB
        fks = loaded.declared_foreign_keys()
        assert len(fks) == 1 and fks[0].ref_table == "p"

    def test_explicit_name_overrides(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        loaded = load_csv_directory(path, name="renamed")
        assert loaded.name == "renamed"


class TestInference:
    def test_load_without_sidecar_infers_types(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        (path / "_schema.json").unlink()
        loaded = load_csv_directory(path)
        p = loaded.table("p")
        assert p.column_def("id").dtype is DataType.INTEGER
        assert p.column_def("label").dtype is DataType.VARCHAR
        assert p.column_def("weight").dtype is DataType.FLOAT
        assert p.column_def("born").dtype is DataType.DATE
        # No sidecar => no constraints: the undocumented-source scenario.
        assert p.schema.primary_key is None
        assert loaded.declared_foreign_keys() == []

    def test_empty_cell_is_null(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        (path / "_schema.json").unlink()
        loaded = load_csv_directory(path)
        assert loaded.table("p").row(1)["label"] is None


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CsvFormatError):
            load_csv_directory(tmp_path / "nope")

    def test_no_csv_files(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(CsvFormatError, match="no .csv files"):
            load_csv_directory(tmp_path / "d")

    def test_ragged_row_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "t.csv").write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="expected 2 cells"):
            load_csv_directory(d)

    def test_duplicate_header_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "t.csv").write_text("a,a\n1,2\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv_directory(d)

    def test_header_schema_mismatch(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        (path / "c.csv").write_text("wrong\n1\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv_directory(path)

    def test_schema_references_missing_file(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        (path / "c.csv").unlink()
        with pytest.raises(CsvFormatError, match="missing"):
            load_csv_directory(path)

    def test_malformed_schema_entry(self, sample_db, tmp_path):
        path = write_csv_directory(sample_db, tmp_path / "dump")
        doc = json.loads((path / "_schema.json").read_text())
        del doc["tables"][0]["columns"][0]["type"]
        (path / "_schema.json").write_text(json.dumps(doc))
        with pytest.raises(CsvFormatError, match="malformed"):
            load_csv_directory(path)


class TestTrailingNewline:
    """A quoted cell ending in a newline is text, never a number or date.

    The type patterns once ended in ``$``, which also matches just before
    a final newline, so ``"12\\n"`` loaded as the INTEGER 12 and rendered
    as ``"12"`` -- silently changing the column's value set.
    """

    def _dump(self, tmp_path, cells, dtype=None):
        d = tmp_path / "d"
        d.mkdir()
        with open(d / "t.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("a\n")
            for cell in cells:
                fh.write(f'"{cell}"\n')
        if dtype is not None:
            doc = {
                "database": "d",
                "tables": [
                    {"name": "t", "columns": [{"name": "a", "type": dtype.value}]}
                ],
            }
            (d / "_schema.json").write_text(json.dumps(doc))
        return d

    @pytest.mark.parametrize(
        "other, cell", [("7", "12\n"), ("7.5", "1.5\n"), ("2020-01-02", "2020-01-01\n")]
    )
    def test_inferred_column_stays_varchar(self, tmp_path, other, cell):
        loaded = load_csv_directory(self._dump(tmp_path, [other, cell]))
        table = loaded.table("t")
        assert table.column_def("a").dtype is DataType.VARCHAR
        assert table.column_values("a") == [other, cell]

    @pytest.mark.parametrize(
        "dtype, cell, message",
        [
            (DataType.INTEGER, "12\n", "cannot parse '12\\n' as INTEGER"),
            (DataType.FLOAT, "1.5\n", "cannot parse '1.5\\n' as FLOAT"),
            (DataType.DATE, "2020-01-01\n", "DATE values must be ISO-8601"),
        ],
    )
    def test_declared_column_rejects_the_cell(self, tmp_path, dtype, cell, message):
        valid = {DataType.INTEGER: "7", DataType.FLOAT: "7", DataType.DATE: "2020-01-02"}
        path = self._dump(tmp_path, [valid[dtype], cell], dtype=dtype)
        with pytest.raises(DataError) as exc:
            load_csv_directory(path)
        assert str(exc.value).startswith(message)
