"""Tests for the column type system."""

import pytest

from repro.db.types import DataType, infer_type, parse_typed, validate_value
from repro.errors import DataError


class TestValidateValue:
    def test_none_passes_any_type(self):
        for dtype in DataType:
            assert validate_value(dtype, None) is None

    def test_integer_accepts_int(self):
        assert validate_value(DataType.INTEGER, 42) == 42

    def test_integer_rejects_string(self):
        with pytest.raises(DataError):
            validate_value(DataType.INTEGER, "42")

    def test_integer_rejects_bool(self):
        with pytest.raises(DataError):
            validate_value(DataType.INTEGER, True)

    def test_float_widens_int(self):
        value = validate_value(DataType.FLOAT, 3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(DataError):
            validate_value(DataType.FLOAT, False)

    def test_varchar_accepts_str(self):
        assert validate_value(DataType.VARCHAR, "x") == "x"

    def test_varchar_rejects_bytes(self):
        with pytest.raises(DataError):
            validate_value(DataType.VARCHAR, b"x")

    def test_date_requires_iso(self):
        assert validate_value(DataType.DATE, "2004-07-15") == "2004-07-15"
        with pytest.raises(DataError):
            validate_value(DataType.DATE, "15.07.2004")

    def test_blob_accepts_bytes_only(self):
        assert validate_value(DataType.BLOB, b"\x00\x01") == b"\x00\x01"
        with pytest.raises(DataError):
            validate_value(DataType.BLOB, "text")

    def test_clob_accepts_long_string(self):
        assert validate_value(DataType.CLOB, "x" * 10_000)


class TestLobFlag:
    def test_lob_types(self):
        assert DataType.CLOB.is_lob
        assert DataType.BLOB.is_lob

    def test_non_lob_types(self):
        for dtype in (DataType.INTEGER, DataType.FLOAT, DataType.VARCHAR,
                      DataType.DATE):
            assert not dtype.is_lob

    def test_numeric_flag(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.VARCHAR.is_numeric


class TestInferType:
    def test_all_ints(self):
        assert infer_type([1, 2, 3]) is DataType.INTEGER

    def test_int_strings(self):
        assert infer_type(["1", "22", "-3"]) is DataType.INTEGER

    def test_mixed_numeric(self):
        assert infer_type([1, 2.5]) is DataType.FLOAT

    def test_float_strings(self):
        assert infer_type(["1.5", "2e3"]) is DataType.FLOAT

    def test_dates(self):
        assert infer_type(["2004-01-01", "2005-12-31"]) is DataType.DATE

    def test_strings(self):
        assert infer_type(["abc", "1"]) is DataType.VARCHAR

    def test_all_null_defaults_to_varchar(self):
        assert infer_type([None, None]) is DataType.VARCHAR

    def test_nulls_ignored(self):
        assert infer_type([None, 5, None]) is DataType.INTEGER

    def test_bytes(self):
        assert infer_type([b"ab", b"cd"]) is DataType.BLOB

    def test_bool_is_not_integer(self):
        assert infer_type([True, False]) is DataType.VARCHAR


class TestParseTyped:
    def test_empty_is_null(self):
        assert parse_typed(DataType.INTEGER, "") is None
        assert parse_typed(DataType.VARCHAR, "") is None

    def test_integer(self):
        assert parse_typed(DataType.INTEGER, "-17") == -17

    def test_integer_garbage(self):
        with pytest.raises(DataError):
            parse_typed(DataType.INTEGER, "x1")

    def test_float(self):
        assert parse_typed(DataType.FLOAT, "2.5") == 2.5

    def test_blob_hex_roundtrip(self):
        assert parse_typed(DataType.BLOB, "6162") == b"ab"

    def test_blob_invalid_hex(self):
        with pytest.raises(DataError):
            parse_typed(DataType.BLOB, "zz")

    def test_date_validated(self):
        with pytest.raises(DataError):
            parse_typed(DataType.DATE, "not-a-date")


class TestTrailingNewline:
    """``$`` matches before a final newline; the type patterns must not."""

    def test_validate_rejects_date_with_newline(self):
        with pytest.raises(DataError):
            validate_value(DataType.DATE, "2020-01-01\n")

    @pytest.mark.parametrize(
        "dtype, text",
        [
            (DataType.INTEGER, "12\n"),
            (DataType.FLOAT, "1.5\n"),
            (DataType.DATE, "2020-01-01\n"),
        ],
    )
    def test_parse_rejects_trailing_newline(self, dtype, text):
        with pytest.raises(DataError):
            parse_typed(dtype, text)

    @pytest.mark.parametrize(
        "other, text", [("7", "12\n"), ("7.5", "1.5\n"), ("2020-01-02", "2020-01-01\n")]
    )
    def test_inference_keeps_the_column_text(self, other, text):
        assert infer_type([other, text]) is DataType.VARCHAR
