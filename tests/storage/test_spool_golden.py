"""Golden spool digests: the bytes every spool variant writes are pinned.

Each case exports one database into every spool variant and compares the
sha256 of ``index.json`` and a manifest digest — the sha256 of one
``<file name> <file sha256>`` line per value file, in name order — against
values recorded from a known-good build.  Any change to rendering, sorting,
escaping, block framing, compression or file naming shows up here as a
digest mismatch, whatever path the writer takes.

Every export runs twice: with ``max_items_in_memory=7``, so the external
sort spills and merges runs for every non-trivial column, and with the
default run size, which sorts in memory; both must give the pinned bytes.
The mmap variants only change how cursors read, so their digests equal
those of the buffered variants — pinned separately all the same, so that
stays true.

To re-record after an intended format change, paste the ``(count, manifest,
index)`` tuples that the failing assertions show into ``GOLDEN`` below.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.datagen.biosql import generate_biosql
from repro.datagen.openmms import generate_openmms
from repro.db import Column, Database, DataType, TableSchema
from repro.storage.exporter import export_database
from repro.storage.external_sort import DEFAULT_RUN_SIZE

from test_validator_agreement import SPOOL_VARIANTS


def _special_db() -> Database:
    """A hand-made table whose values stress escaping and rendering."""
    db = Database("golden_special")
    table = db.create_table(
        TableSchema(
            "special",
            [
                Column("text", DataType.VARCHAR),
                Column("num", DataType.FLOAT),
                Column("code", DataType.INTEGER),
            ],
        )
    )
    text = [
        "back\\slash",
        "two\\\\slashes",
        "line\nbreak",
        "carriage\rreturn",
        "crlf\r\n",
        "\n",
        "\\n literal",
        "",
        "",
        "plain",
        "naïve",
        "Grüße",
        "日本語",
        "emoji 🧬",
        "\\",
        "trailing\\",
        None,
        "z",
        "a",
        "ÿ",
    ]
    num = [
        float("nan"),
        float("inf"),
        float("-inf"),
        -0.0,
        0.0,
        1e16,
        1e22,
        5e-324,
        2.0**53 + 2,
        0.1,
        -2.5,
        3.0,
        None,
        1e-7,
        123456789.0,
        -1e300,
        7.25,
        float("nan"),
        42.0,
        1.5,
    ]
    code = list(range(-10, 10))
    code[5] = None
    table.extend_columns({"text": text, "num": num, "code": code})
    return db


CASES = {
    "biosql": lambda: generate_biosql("tiny", seed=7).db,
    "openmms": lambda: generate_openmms("tiny").db,
    "special": _special_db,
}

#: (case, format, compression, mmap_reads) → (value files, manifest sha256,
#: index.json sha256).
GOLDEN = {
    ("biosql", "text", "none", False): (
        80,
        "1910d359295058b5897c339c41db2bc14d5d0bbc96adcfaa8f01dfe34e54c42e",
        "9c47c0556a398aff66ed976c2234256090ddfb20a9f9f98c6478e358bf819c6a",
    ),
    ("biosql", "binary", "none", False): (
        80,
        "b4a77e4d852a1d62db3edf7d9b03f4f1e0ee0010fedbbdad38f9a2d7a92482e8",
        "e9070d05fd52e69c189106e94b7aa87abbc88df66509b2b4a0cdc04def12587d",
    ),
    ("biosql", "binary", "none", True): (
        80,
        "b4a77e4d852a1d62db3edf7d9b03f4f1e0ee0010fedbbdad38f9a2d7a92482e8",
        "e9070d05fd52e69c189106e94b7aa87abbc88df66509b2b4a0cdc04def12587d",
    ),
    ("biosql", "binary", "zlib", False): (
        80,
        "7eaf8ff2fefd52ad6e0eb422acb65cc8008232762ab1e63bbaef24aec027cdaf",
        "1d7d6311ef878c30de5a09c33f9f45f36e4a7ec02f897d75c804183871a16afe",
    ),
    ("biosql", "binary", "zlib", True): (
        80,
        "7eaf8ff2fefd52ad6e0eb422acb65cc8008232762ab1e63bbaef24aec027cdaf",
        "1d7d6311ef878c30de5a09c33f9f45f36e4a7ec02f897d75c804183871a16afe",
    ),
    ("openmms", "text", "none", False): (
        83,
        "2719fa4f7ac1543adab41332647cf3de57bb6b83b991a00344a743270b68c310",
        "8eb8cd9eb38cf3925c5715d1734d1eb7148c84e87008629befd656c0cf48b50f",
    ),
    ("openmms", "binary", "none", False): (
        83,
        "6b7869b1c30c886eba1fa2f486c16a0e3f55f582103b65e1fa8679bf709721f9",
        "b5878097d9076ab9515bdf4e6cee9aeda630f47011a939c5928a0e9125a8e826",
    ),
    ("openmms", "binary", "none", True): (
        83,
        "6b7869b1c30c886eba1fa2f486c16a0e3f55f582103b65e1fa8679bf709721f9",
        "b5878097d9076ab9515bdf4e6cee9aeda630f47011a939c5928a0e9125a8e826",
    ),
    ("openmms", "binary", "zlib", False): (
        83,
        "c04862dacf4d559c54d12840ad9df8a0edbae6c3a338b6daee75d94f6f11dddd",
        "5977ebf4c80ae348b83a27ff6de89edddd155b697cd65fd492c36b2dddcb9e45",
    ),
    ("openmms", "binary", "zlib", True): (
        83,
        "c04862dacf4d559c54d12840ad9df8a0edbae6c3a338b6daee75d94f6f11dddd",
        "5977ebf4c80ae348b83a27ff6de89edddd155b697cd65fd492c36b2dddcb9e45",
    ),
    ("special", "text", "none", False): (
        3,
        "f24c4bfa6e9c63c39028f93f83ee627b21200add4348515e0e61679495412176",
        "474bf486e28d2e7edf77545d927d50e830068381a2c387354a112bd33b61821c",
    ),
    ("special", "binary", "none", False): (
        3,
        "c0e6f6c7e1815793adf67d9e9af7f8260969f05bed8dadfb0df0cb98620da309",
        "531d43e4ce9dbec7d31a47bfd26d22311fceaa8f62b6eb25a352b95dcf17ea4d",
    ),
    ("special", "binary", "none", True): (
        3,
        "c0e6f6c7e1815793adf67d9e9af7f8260969f05bed8dadfb0df0cb98620da309",
        "531d43e4ce9dbec7d31a47bfd26d22311fceaa8f62b6eb25a352b95dcf17ea4d",
    ),
    ("special", "binary", "zlib", False): (
        3,
        "bc35f28a34e501312ca9400a8f1a4cc072515e9699912176d0b238dce795a831",
        "ccfaf23b047e5704aad44292b6ca4a7afaac80e1cc61eaf82ce1d4b31b5ac850",
    ),
    ("special", "binary", "zlib", True): (
        3,
        "bc35f28a34e501312ca9400a8f1a4cc072515e9699912176d0b238dce795a831",
        "ccfaf23b047e5704aad44292b6ca4a7afaac80e1cc61eaf82ce1d4b31b5ac850",
    ),
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spool_digests(root: Path) -> tuple[int, str, str]:
    files = sorted(p for p in root.iterdir() if p.name != "index.json")
    manifest = "".join(f"{p.name} {_digest(p)}\n" for p in files)
    return (
        len(files),
        hashlib.sha256(manifest.encode("utf-8")).hexdigest(),
        _digest(root / "index.json"),
    )


@pytest.fixture(scope="module")
def databases():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("run_size", (7, DEFAULT_RUN_SIZE))
@pytest.mark.parametrize("variant", SPOOL_VARIANTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_spool_bytes_are_pinned(tmp_path, databases, case, variant, run_size):
    spool_format, compression, mmap_reads = variant
    root = tmp_path / "spool"
    export_database(
        databases[case],
        str(root),
        max_items_in_memory=run_size,
        spool_format=spool_format,
        compression=compression,
        mmap_reads=mmap_reads,
    )
    got = _spool_digests(root)
    assert not list(root.glob("*.tmp*"))
    assert got == GOLDEN[(case, *variant)]
