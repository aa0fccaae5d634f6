"""Shared fixtures for the test suite, and a per-test watchdog.

Loading this conftest also puts ``tests/`` on ``sys.path``, which is what
lets test modules at any depth import the shared seeded builders
(``from seeded_dbs import build_db, build_random_db, spool_with``) — see
``tests/seeded_dbs.py``.

The watchdog bounds every test (setup, call and teardown together) to
``WATCHDOG_SECONDS``.  On expiry it writes every thread's stack to stderr
and fails the test from a ``SIGALRM`` handler; should the test still not
finish ``WATCHDOG_GRACE_SECONDS`` later -- a wait that never returns to
the interpreter -- ``faulthandler`` dumps the stacks once more and ends
the process.  Either way a wedged run says where it is stuck instead of
hanging silently.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import threading
from typing import TextIO

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db.stats import collect_column_stats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory


#: Longest a single test may run before the watchdog fails it.
WATCHDOG_SECONDS = 300
#: Further wait, after failing the test, before the process is ended.
WATCHDOG_GRACE_SECONDS = 60

_WATCHDOG_STREAM = pytest.StashKey[TextIO]()


def pytest_configure(config):
    # A duplicate of the real stderr, taken before output capture redirects
    # fd 2 for each test: the stacks must reach the terminal even when the
    # process does not survive to report them.
    config.stash[_WATCHDOG_STREAM] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_WATCHDOG_STREAM].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM") or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    stream = item.config.stash[_WATCHDOG_STREAM]

    def expire(signum, frame):
        stream.write(f"\nwatchdog: {item.nodeid} exceeded {WATCHDOG_SECONDS} s\n")
        stream.flush()
        faulthandler.dump_traceback(file=stream, all_threads=True)
        pytest.fail(
            f"exceeded the {WATCHDOG_SECONDS} s test watchdog; every thread's "
            "stack was written to stderr",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    faulthandler.dump_traceback_later(
        WATCHDOG_SECONDS + WATCHDOG_GRACE_SECONDS, exit=True, file=stream
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def fk_db() -> Database:
    """A small parent/child database with one true FK and planted noise.

    INDs that hold: child.pid [= parent.id (the FK),
    child.pid [= child.cid (40 > 25 ids, 1-based ranges... see values),
    and parent.id [= child.cid.
    """
    db = Database("fk_db")
    parent = db.create_table(
        TableSchema(
            "parent",
            [Column("id", DataType.INTEGER), Column("acc", DataType.VARCHAR)],
            primary_key="id",
        )
    )
    child = db.create_table(
        TableSchema(
            "child",
            [
                Column("cid", DataType.INTEGER),
                Column("pid", DataType.INTEGER),
                Column("note", DataType.VARCHAR),
            ],
            primary_key="cid",
        )
    )
    for i in range(25):
        parent.insert({"id": i + 1, "acc": f"ACC{i + 1:04d}"})
    for i in range(40):
        child.insert(
            {
                "cid": i + 1,
                "pid": (i % 25) + 1,
                "note": ["alpha", "beta", None][i % 3],
            }
        )
    return db


@pytest.fixture()
def fk_spool(fk_db, tmp_path) -> SpoolDirectory:
    spool, _ = export_database(fk_db, str(tmp_path / "spool"))
    return spool


@pytest.fixture()
def fk_stats(fk_db):
    return collect_column_stats(fk_db)


def make_db(tables: dict[str, dict[str, list]]) -> Database:
    """Build a database from {table: {column: [values]}} with inferred types.

    Test helper: all columns nullable, types inferred from the values.
    """
    from repro.db.types import infer_type

    db = Database("adhoc")
    for table_name, columns in tables.items():
        schema = TableSchema(
            table_name,
            [Column(name, infer_type(values)) for name, values in columns.items()],
        )
        table = db.create_table(schema)
        lengths = {len(v) for v in columns.values()}
        assert len(lengths) == 1, "all columns must have equal row counts"
        n = lengths.pop()
        names = list(columns)
        for i in range(n):
            table.insert({name: columns[name][i] for name in names})
    return db


@pytest.fixture()
def adhoc_db_factory():
    return make_db
