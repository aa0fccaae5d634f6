"""Column type system for the relational substrate.

The paper's candidate generation treats types in two ways only:

* LOB columns are excluded from the set of potentially dependent attributes
  (Sec. 2: "non-empty columns of any type except LOB"), and
* datatype-based candidate pruning is explicitly *rejected* for the life
  science domain because integer data is frequently stored in string columns
  (Sec. 4.1).

We therefore model a small, Oracle-flavoured palette: ``INTEGER``, ``FLOAT``,
``VARCHAR``, ``DATE``, ``CLOB`` and ``BLOB``.  Dates are carried as ISO-8601
strings so that the TO_CHAR-style rendering used throughout the pipeline stays
trivial and total.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence
from typing import Any, NamedTuple

from repro.errors import DataError

#: Python types admissible per SQL type (``None`` is always admissible and
#: handled before these checks).
_PYTHON_TYPES = {
    "INTEGER": (int,),
    "FLOAT": (float, int),
    "VARCHAR": (str,),
    "DATE": (str,),
    "CLOB": (str,),
    "BLOB": (bytes,),
}

#: Whole-cell patterns, always applied with ``fullmatch``: ``$`` would also
#: match before a trailing newline, letting a quoted CSV cell ``"12\n"``
#: pass as the integer 12.
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")
_INT_RE = re.compile(r"[+-]?\d+")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


class DataType(enum.Enum):
    """SQL column types supported by the substrate."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    CLOB = "CLOB"
    BLOB = "BLOB"

    @property
    def is_lob(self) -> bool:
        """Whether this is a large-object type (excluded from IND candidates)."""
        return self in (DataType.CLOB, DataType.BLOB)

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


def validate_value(dtype: DataType, value: Any) -> Any:
    """Validate (and lightly coerce) ``value`` for a column of type ``dtype``.

    Returns the stored representation.  ``None`` is passed through (NULL).
    Integers offered to FLOAT columns are widened to ``float``; DATE values
    must be ISO-8601 ``YYYY-MM-DD`` strings.  Booleans are rejected even though
    they subclass ``int`` — a profiling tool must not silently conflate them.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise DataError(f"boolean value {value!r} is not valid for {dtype}")
    allowed = _PYTHON_TYPES[dtype.value]
    if not isinstance(value, allowed):
        raise DataError(
            f"value {value!r} of type {type(value).__name__} is not valid for {dtype}"
        )
    if dtype is DataType.FLOAT and isinstance(value, int):
        return float(value)
    if dtype is DataType.DATE and not _DATE_RE.fullmatch(value):
        raise DataError(f"DATE values must be ISO-8601 YYYY-MM-DD, got {value!r}")
    return value


def infer_type(values: list[Any]) -> DataType:
    """Infer a column type from raw (string or typed) values.

    Used by the CSV importer.  Inference is conservative: a column is INTEGER
    only if every non-null value parses as an integer, FLOAT if every value
    parses as a number, DATE if every value is ISO-8601, otherwise VARCHAR.
    An all-null column defaults to VARCHAR, matching what a DBA would declare
    for an unknown feed.
    """
    non_null = [v for v in values if v is not None]
    if not non_null:
        return DataType.VARCHAR
    if all(isinstance(v, bytes) for v in non_null):
        return DataType.BLOB
    if all(isinstance(v, int) and not isinstance(v, bool) for v in non_null):
        return DataType.INTEGER
    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in non_null
    ):
        return DataType.FLOAT
    if not all(isinstance(v, str) for v in non_null):
        return DataType.VARCHAR
    if all(_INT_RE.fullmatch(v) for v in non_null):
        return DataType.INTEGER
    if all(_FLOAT_RE.fullmatch(v) for v in non_null):
        return DataType.FLOAT
    if all(_DATE_RE.fullmatch(v) for v in non_null):
        return DataType.DATE
    return DataType.VARCHAR


def parse_typed(dtype: DataType, text: str | None) -> Any:
    """Parse CSV text into the stored representation for ``dtype``.

    Empty strings are treated as NULL, the common CSV convention.
    """
    if text is None or text == "":
        return None
    if dtype is DataType.INTEGER:
        if not _INT_RE.fullmatch(text):
            raise DataError(f"cannot parse {text!r} as INTEGER")
        return int(text)
    if dtype is DataType.FLOAT:
        if not _FLOAT_RE.fullmatch(text):
            raise DataError(f"cannot parse {text!r} as FLOAT")
        return float(text)
    if dtype is DataType.BLOB:
        # BLOBs travel hex-encoded through CSV (see repro.db.csvio).
        try:
            return bytes.fromhex(text)
        except ValueError as exc:
            raise DataError(f"cannot parse {text!r} as hex-encoded BLOB") from exc
    return validate_value(dtype, text)


class CellFault(NamedTuple):
    """The first cell of a column that breaks a rule, and the error it raised."""

    row: int
    error: DataError


#: Columnar CSV parsing per type: the converter of a non-empty cell (``None``
#: keeps the text) and the pattern every non-empty cell must fully match
#: first (``None``: the converter alone decides).
_COLUMN_PARSERS = {
    DataType.INTEGER: (int, _INT_RE),
    DataType.FLOAT: (float, _FLOAT_RE),
    DataType.BLOB: (bytes.fromhex, None),
    DataType.DATE: (None, _DATE_RE),
    DataType.VARCHAR: (None, None),
    DataType.CLOB: (None, None),
}


def parse_column(
    dtype: DataType, cells: Sequence[str]
) -> tuple[list[Any], CellFault | None]:
    """Parse one CSV column into stored values, dispatching on type once.

    Equivalent to :func:`parse_typed` on every cell in order.  Returns the
    parsed values and ``None``, or, when a cell does not parse, the values
    of the rows before it and the :class:`CellFault` :func:`parse_typed`
    raised for it.  The per-cell rules stay the only rules: the bulk pass
    merely proves no cell breaks them, and a column it cannot prove clean
    is walked cell by cell.
    """
    convert, pattern = _COLUMN_PARSERS[dtype]
    if pattern is None or all(map(pattern.fullmatch, filter(None, cells))):
        try:
            if convert is None:
                return [cell or None for cell in cells], None
            return [convert(cell) if cell else None for cell in cells], None
        except ValueError:
            pass  # a bad hex cell; the walk below reports it
    values: list[Any] = []
    for row, cell in enumerate(cells):
        try:
            values.append(parse_typed(dtype, cell))
        except DataError as exc:
            return values, CellFault(row, exc)
    return values, None


#: The Python types a column of each SQL type holds without coercion:
#: its stored type (the first admissible one) and NULL.
_STORED_KINDS = {
    dtype: frozenset({_PYTHON_TYPES[dtype.value][0], type(None)}) for dtype in DataType
}


def validate_column(
    dtype: DataType, values: Sequence[Any]
) -> tuple[Sequence[Any], CellFault | None]:
    """Validate a whole column for ``dtype``, dispatching on type once.

    Equivalent to :func:`validate_value` on every value in order, with the
    same return convention as :func:`parse_column`.  A column whose values
    are all of the type's stored Python type (or NULL) is returned as is;
    anything else -- subclasses, integers to widen, values to reject --
    is walked value by value.
    """
    if set(map(type, values)) <= _STORED_KINDS[dtype] and (
        dtype is not DataType.DATE
        or all(map(_DATE_RE.fullmatch, [v for v in values if v is not None]))
    ):
        return values, None
    prepared: list[Any] = []
    for row, value in enumerate(values):
        try:
            prepared.append(validate_value(dtype, value))
        except DataError as exc:
            return prepared, CellFault(row, exc)
    return prepared, None
