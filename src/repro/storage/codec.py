"""Value rendering and the on-disk codecs of sorted value files.

Two decisions from the paper are encoded here:

* **TO_CHAR semantics.**  The ``minus`` SQL statement (Fig. 3) casts both
  sides with ``to_char`` before comparing, and Sec. 4.1 notes that in the life
  sciences "even attributes containing solely integers are represented as
  string".  We therefore compare *rendered strings*: integer ``144`` and
  string ``"144"`` are the same value for IND purposes.

* **Lexicographic order.**  Sec. 3.2: "We can use lexicographic sorting for
  all values including numeric values, because the actual order of values is
  irrelevant as long as it is consistent over all sets."  Spool files are
  sorted by plain Python string comparison (code-point order), which is a
  total order and consistent everywhere.

The escaped line format makes the newline-delimited spool files loss-free for
arbitrary strings (including embedded newlines and backslashes).

Two codecs share the escaping rules:

* **v1 (text)** — one escaped value per line, the whole file is one stream of
  lines (:func:`escape_line` / :func:`unescape_line` per value);
* **v2 (binary blocks)** — escaped values are packed into length-prefixed
  blocks (:func:`encode_block` / :func:`decode_block`), so a reader decodes a
  few thousand values with one ``bytes.decode`` + ``str.split`` instead of one
  Python-level line read per value.  See ``docs/spool_format.md``.

The v3 layout reuses the v2 block codec and adds an optional zlib layer
around each payload (:func:`compress_payload` / :func:`decompress_payload`)
— CPU-for-I/O on large exports, selected per file by the frame flags byte
(:mod:`repro.storage.blockio`).
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from typing import Any

from repro.errors import SpoolError

#: Spool payload compression schemes.  ``zlib`` upgrades the file to the v3
#: frame (flags byte ``0x01``); ``none`` keeps the v2 frame byte-identical.
COMPRESSION_NONE = "none"
COMPRESSION_ZLIB = "zlib"
SPOOL_COMPRESSIONS = (COMPRESSION_NONE, COMPRESSION_ZLIB)

#: zlib level 6: the default trade-off — decompression speed is level
#: independent, and the validator hot path only ever decompresses.
_ZLIB_LEVEL = 6


def render_value(value: Any) -> str:
    """Render a stored value to its canonical comparison string.

    NULLs never reach the spool files, so ``None`` is a programming error
    here.  Floats with integral value render without a fractional part, as
    ``TO_CHAR`` would (``1.0`` → ``"1"``); other floats use ``repr``, the
    shortest round-tripping form.  Bytes (BLOB) render as lowercase hex —
    BLOBs are excluded from candidates but still appear in statistics.
    """
    if value is None:
        raise SpoolError("NULL values cannot be rendered into a value set")
    if isinstance(value, bool):
        raise SpoolError(f"boolean value {value!r} has no TO_CHAR rendering")
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        if value.is_integer():
            return str(int(value))
        return repr(value)
    if isinstance(value, bytes):
        return value.hex()
    raise SpoolError(f"cannot render value of type {type(value).__name__}")


#: SQL types (by ``DataType`` value) whose stored values are ``str`` and so
#: already their own rendering.
_RENDERED_AS_STORED = frozenset({"VARCHAR", "DATE", "CLOB"})


def render_column(dtype: str, values: Iterable[Any]) -> Iterable[str]:
    """Render a column's non-NULL stored values, dispatching on type once.

    ``dtype`` is the column's ``DataType`` value.  The result equals
    ``map(render_value, values)`` because a table stores every value of a
    column as the Python type its SQL type admits: VARCHAR, DATE and CLOB
    values are ``str`` and render as themselves, INTEGER values are ``int``
    and render through ``str``; FLOAT and BLOB go through
    :func:`render_value` value by value.
    """
    if dtype in _RENDERED_AS_STORED:
        return values
    if dtype == "INTEGER":
        return map(str, values)
    return map(render_value, values)


def escape_line(text: str) -> str:
    r"""Escape a rendered value so it occupies exactly one file line.

    Backslash becomes ``\\``, newline ``\n``, carriage return ``\r``.  The
    mapping is injective, so sorting escaped lines is *not* guaranteed to sort
    the underlying values — which is why the spool writer sorts values first
    and escapes second.
    """
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_line(line: str) -> str:
    r"""Inverse of :func:`escape_line`."""
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise SpoolError(f"dangling escape at end of line: {line!r}")
        nxt = line[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == "n":
            out.append("\n")
        elif nxt == "r":
            out.append("\r")
        else:
            raise SpoolError(f"unknown escape sequence \\{nxt} in {line!r}")
        i += 2
    return "".join(out)


def encode_block(values: list[str]) -> bytes:
    r"""Encode a batch of values into one v2 block payload.

    The payload is the escaped values joined by ``\n`` and UTF-8 encoded.
    Escaping guarantees the separator never occurs inside a value, so the
    decoder can split the whole payload at C speed.  The value *count* is not
    part of the payload — the block frame (see :mod:`repro.storage.blockio`)
    carries it, which is what disambiguates the empty payload of a zero-value
    block from a block holding one empty string.
    """
    return "\n".join(escape_line(value) for value in values).encode("utf-8")


def decode_block(payload: bytes, count: int) -> list[str]:
    """Inverse of :func:`encode_block` for a block of ``count`` values."""
    if count == 0:
        if payload:
            raise SpoolError(
                f"zero-value block carries {len(payload)} payload bytes"
            )
        return []
    lines = payload.decode("utf-8").split("\n")
    if len(lines) != count:
        raise SpoolError(
            f"corrupt block: header promises {count} values, "
            f"payload holds {len(lines)}"
        )
    # Values without escape sequences (the overwhelming majority) skip the
    # per-character unescape loop entirely.
    return [unescape_line(line) if "\\" in line else line for line in lines]


def compress_payload(payload: bytes) -> bytes:
    """Deflate one block payload for a v3 compressed frame."""
    return zlib.compress(payload, _ZLIB_LEVEL)


def decompress_payload(payload: bytes, path: str, ordinal: int) -> bytes:
    """Inflate one v3 block payload, failing loudly on corruption.

    A bad stream raises :class:`SpoolError` naming the file and the block
    ordinal — never a bare ``zlib.error`` — so a truncated or bit-flipped
    spool is diagnosable from the exception alone.
    """
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise SpoolError(
            f"corrupt compressed block {ordinal} in {path}: {exc}"
        ) from exc


def render_distinct_sorted(values: list[Any]) -> list[str]:
    """Render a bag of non-NULL values into the sorted set ``s(a)``.

    This is the in-memory path; :mod:`repro.storage.external_sort` provides
    the bounded-memory path for sets that do not fit.
    """
    return sorted({render_value(v) for v in values})
