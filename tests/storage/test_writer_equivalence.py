"""The chunked spool writer against the per-value writer it replaced.

:func:`~repro.storage.sorted_sets.write_value_file` takes values a block at
a time: one ascent check per chunk, one join per block.  The oracle below is
the earlier per-value loop, kept verbatim in spirit: check each value
against the last, hand it to a writer that buffers one value at a time, and
escape every value on its own with :func:`escape_line`.  Both must produce
the same file bytes and the same metadata for every input.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.blockio import BlockMeta
from repro.storage.codec import encode_block, escape_line, escape_lines
from repro.storage.sorted_sets import write_value_file

REF = AttributeRef("t", "c")

#: (format, compression) legs the writer supports.
LEGS = (("text", "none"), ("binary", "none"), ("binary", "zlib"))
BLOCK_SIZES = (1, 2, 7, 1024)
#: Length offsets from the block size: 0 and 1 values, and bs−1, bs, bs+1.
LENGTHS = ("zero", "one", "bs-1", "bs", "bs+1")

_MAGIC = {"none": b"RSPL2\x02\x00\n", "zlib": b"RSPL2\x03\x01\n"}

#: Short values over an alphabet that exercises every escape.
values_text = st.text(
    alphabet=st.sampled_from(["a", "b", "\\", "\n", "\r", "é", "日", " "]),
    max_size=4,
)


def _oracle(values, fmt, block_size, compression):
    """The per-value writer loop: (file bytes, count, min, max, blocks)."""
    last = None
    checked = []
    for value in values:
        if last is not None and value <= last:
            raise SpoolError(
                f"values for {REF} are not strictly ascending: "
                f"{value!r} after {last!r}"
            )
        last = value
        checked.append(value)
    if fmt == "text":
        data = "".join(escape_line(v) + "\n" for v in checked).encode("utf-8")
        first = checked[0] if checked else None
        return data, len(checked), first, last, ()
    out = [_MAGIC[compression]]
    blocks = []
    pending: list[str] = []

    def flush():
        payload = "\n".join(escape_line(v) for v in pending).encode("utf-8")
        raw = len(payload)
        if compression == "zlib":
            payload = zlib.compress(payload, 6)
            meta = BlockMeta(len(pending), pending[0], pending[-1], raw, len(payload))
        else:
            meta = BlockMeta(len(pending), pending[0], pending[-1])
        out.append(struct.pack("<II", len(payload), len(pending)))
        out.append(payload)
        blocks.append(meta)

    for value in checked:
        pending.append(value)
        if len(pending) >= block_size:
            flush()
            pending = []
    if pending:
        flush()
    first = checked[0] if checked else None
    return b"".join(out), len(checked), first, last, tuple(blocks)


def _length(label: str, block_size: int) -> int:
    return {
        "zero": 0,
        "one": 1,
        "bs-1": block_size - 1,
        "bs": block_size,
        "bs+1": block_size + 1,
    }[label]


def _input(drawn: list[str], length: int) -> list[str]:
    """``length`` sorted distinct values, the drawn ones first in line."""
    filler = (f"~{i:05d}" for i in range(length))
    pool = set(drawn)
    while len(pool) < length:
        pool.add(next(filler))
    return sorted(pool)[:length]


def _written(values, fmt, block_size, compression):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v"
        svf = write_value_file(
            REF, path, values, format=fmt, block_size=block_size,
            compression=compression,
        )
        assert os.listdir(tmp) == ["v"]
        return (
            path.read_bytes(), svf.count, svf.min_value, svf.max_value,
            svf.blocks,
        )


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("leg", LEGS, ids=["-".join(leg) for leg in LEGS])
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@settings(max_examples=8, deadline=None)
@given(drawn=st.lists(values_text, max_size=12))
def test_chunked_writer_matches_per_value_loop(
    block_size, length, leg, as_generator, drawn
):
    fmt, compression = leg
    values = _input(drawn, _length(length, block_size))
    expected = _oracle(values, fmt, block_size, compression)
    source = (v for v in values) if as_generator else values
    assert _written(source, fmt, block_size, compression) == expected


@pytest.mark.parametrize("leg", LEGS, ids=["-".join(leg) for leg in LEGS])
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(values_text, max_size=20),
    block_size=st.sampled_from(BLOCK_SIZES),
)
def test_rejections_match_per_value_loop(leg, values, block_size):
    """Unsorted input fails with the oracle's exact error, and no file."""
    fmt, compression = leg
    try:
        expected = _oracle(values, fmt, block_size, compression)
    except SpoolError as exc:
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(SpoolError) as info:
                write_value_file(
                    REF, Path(tmp) / "v", iter(values), format=fmt,
                    block_size=block_size, compression=compression,
                )
            assert str(info.value) == str(exc)
            assert os.listdir(tmp) == []
        return
    assert _written(values, fmt, block_size, compression) == expected


ESCAPES = ["\\", "\n", "\r", "\r\n", "\\n", "a\\", "\na", "", "plain", "é\r"]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(values_text | st.sampled_from(ESCAPES), max_size=10))
def test_encode_block_equals_escape_each(values):
    expected = "\n".join(escape_line(v) for v in values)
    assert escape_lines(values) == expected
    assert encode_block(values) == expected.encode("utf-8")


@pytest.mark.parametrize(
    "values",
    [[""], ["", ""], ["\n"], ["a\n", "b"], ["\\"], ["\r"], ["a", "", "b"], []],
)
def test_encode_block_edge_cases(values):
    expected = "\n".join(escape_line(v) for v in values).encode("utf-8")
    assert encode_block(values) == expected
