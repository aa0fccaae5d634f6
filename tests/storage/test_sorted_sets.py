"""Tests for sorted value files and the spool directory."""

import pytest

from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.sorted_sets import SpoolDirectory, write_value_file


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    return SpoolDirectory.create(tmp_path / "spool")


A = AttributeRef("t", "a")
B = AttributeRef("t", "b")


class TestAddValues:
    def test_add_and_read(self, spool):
        svf = spool.add_values(A, ["a", "b", "c"])
        assert svf.count == 3
        assert svf.min_value == "a"
        assert svf.max_value == "c"
        assert svf.values() == ["a", "b", "c"]

    def test_empty_attribute(self, spool):
        svf = spool.add_values(A, [])
        assert svf.is_empty
        assert svf.min_value is None

    def test_rejects_unsorted(self, spool):
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["b", "a"])

    def test_rejects_duplicates(self, spool):
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["a", "a"])

    def test_rejects_double_spool(self, spool):
        spool.add_values(A, ["a"])
        with pytest.raises(SpoolError, match="already spooled"):
            spool.add_values(A, ["b"])

    def test_values_with_special_characters(self, spool):
        values = sorted(["x\ny", "plain", "back\\slash"])
        spool.add_values(A, values)
        assert spool.get(A).values() == values

    def test_unsafe_names_sanitised(self, spool):
        weird = AttributeRef("ta ble", "col/umn")
        spool.add_values(weird, ["v"])
        assert spool.get(weird).values() == ["v"]

    def test_name_collisions_get_suffixes(self, spool):
        # Two attributes that sanitise to the same file name must coexist.
        first = AttributeRef("t", "a/b")
        second = AttributeRef("t", "a_b")
        spool.add_values(first, ["1"])
        spool.add_values(second, ["2"])
        assert spool.get(first).values() == ["1"]
        assert spool.get(second).values() == ["2"]


class TestWriteValueFile:
    def test_writes_atomically_and_deterministically(self, tmp_path):
        path = tmp_path / "t__c.valsb"
        svf = write_value_file(
            AttributeRef("t", "c"),
            path,
            ["apple", "pear", "zebra"],
            format="binary",
            block_size=2,
        )
        assert svf.count == 3
        assert (svf.min_value, svf.max_value) == ("apple", "zebra")
        assert svf.path == str(path)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp-*")), "temporary name must be gone"
        assert svf.values() == ["apple", "pear", "zebra"]
        # A second write of the same input reproduces byte-identical
        # content and metadata.
        first = path.read_bytes()
        again = write_value_file(
            AttributeRef("t", "c"),
            path,
            ["apple", "pear", "zebra"],
            format="binary",
            block_size=2,
        )
        assert again == svf
        assert path.read_bytes() == first

    def test_unsorted_input_leaves_no_file(self, tmp_path):
        path = tmp_path / "t__c.valsb"
        with pytest.raises(SpoolError):
            write_value_file(
                AttributeRef("t", "c"), path, ["pear", "apple"], format="binary"
            )
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp-*"))


class TestLookups:
    def test_contains_and_len(self, spool):
        assert A not in spool
        spool.add_values(A, ["a"])
        assert A in spool
        assert len(spool) == 1

    def test_get_missing(self, spool):
        with pytest.raises(SpoolError, match="not in the spool"):
            spool.get(A)

    def test_attributes_sorted(self, spool):
        spool.add_values(B, ["b"])
        spool.add_values(A, ["a"])
        assert spool.attributes() == [A, B]

    def test_total_values(self, spool):
        spool.add_values(A, ["a", "b"])
        spool.add_values(B, ["c"])
        assert spool.total_values() == 3

    def test_discard(self, spool):
        spool.add_values(A, ["a"])
        spool.discard(A)
        assert A not in spool
        spool.discard(A)  # idempotent


class TestPersistence:
    def test_save_and_reopen(self, spool, tmp_path):
        spool.add_values(A, ["a", "b"])
        spool.add_values(B, ["z"])
        spool.save_index()
        reopened = SpoolDirectory.open(spool.root)
        assert reopened.attributes() == [A, B]
        assert reopened.get(A).count == 2
        assert reopened.get(A).values() == ["a", "b"]
        assert reopened.get(B).max_value == "z"

    def test_open_requires_index(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(SpoolError, match="not a spool directory"):
            SpoolDirectory.open(tmp_path / "d")

    def test_open_detects_missing_file(self, spool):
        spool.add_values(A, ["a"])
        spool.save_index()
        import os

        os.unlink(spool.get(A).path)
        with pytest.raises(SpoolError, match="missing file"):
            SpoolDirectory.open(spool.root)


class TestCursorIntegration:
    def test_open_cursor_counts(self, spool):
        from repro.storage.cursors import IOStats

        spool.add_values(A, ["a", "b"])
        stats = IOStats()
        cursor = spool.open_cursor(A, stats)
        while cursor.has_next():
            cursor.next_value()
        cursor.close()
        assert stats.items_read == 2
        assert stats.reads_per_attribute == {"t.a": 2}
