"""Tests for sorted value files and the spool directory."""

import os

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


#: A violation exactly at the seam of two ``block_size=2`` chunks: the
#: value at index 2 is the first of the second chunk.
SEAM_CASES = {
    "unsorted": (["a", "c", "b", "d"], "'b' after 'c'"),
    "duplicate": (["a", "c", "c", "d"], "'c' after 'c'"),
}


class TestAscentCheckAtChunkSeams:
    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("case", sorted(SEAM_CASES))
    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_seam_violation_is_loud(self, tmp_path, fmt, case, as_generator):
        values, pair = SEAM_CASES[case]
        spool = SpoolDirectory.create(tmp_path / "s", format=fmt, block_size=2)
        source = (v for v in values) if as_generator else list(values)
        with pytest.raises(
            SpoolError, match=f"^values for t.a are not strictly ascending: {pair}$"
        ):
            spool.add_values(A, source)
        assert A not in spool
        assert list((tmp_path / "s").iterdir()) == []

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_violation_inside_a_later_chunk_names_first_pair(self, tmp_path, fmt):
        path = tmp_path / "v"
        with pytest.raises(SpoolError, match="'d' after 'e'$"):
            write_value_file(
                A, path, iter(["a", "b", "c", "e", "d", "d"]), format=fmt,
                block_size=2,
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_rejects_bad_block_size(self, tmp_path, fmt):
        with pytest.raises(SpoolError, match="block_size"):
            write_value_file(A, tmp_path / "v", ["a"], format=fmt, block_size=0)
        assert list(tmp_path.iterdir()) == []


class TestFileNameReuse:
    """Choosing a file name looks at the names in use, and only those."""

    @staticmethod
    def _name(spool, ref):
        return os.path.basename(spool.get(ref).path)

    def test_name_free_again_after_discard(self, spool):
        spool.add_values(A, ["a"])
        spool.discard(A)
        spool.add_values(A, ["b"])
        assert self._name(spool, A) == "t__a.vals"

    def test_name_free_again_after_failed_write(self, spool):
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["b", "a"])
        spool.add_values(A, ["a"])
        assert self._name(spool, A) == "t__a.vals"

    def test_release_frees_a_reserved_name(self, spool):
        x, y, z = (AttributeRef("t", c) for c in ("a/b", "a_b", "a b"))
        assert spool.reserve_name(x) == "t__a_b.vals"
        assert spool.reserve_name(y) == "t__a_b__2.vals"
        spool.release(x)
        assert spool.reserve_name(z) == "t__a_b.vals"
        assert spool.reserve_name(x) == "t__a_b__3.vals"

    def test_reopened_directory_knows_its_names(self, spool):
        first = AttributeRef("t", "a/b")
        spool.add_values(first, ["1"])
        spool.save_index()
        reopened = SpoolDirectory.open(spool.root)
        second = AttributeRef("t", "a_b")
        reopened.add_values(second, ["2"])
        assert self._name(reopened, second) == "t__a_b__2.vals"
        assert reopened.get(first).values() == ["1"]

    def test_collision_suffixes_unchanged(self, spool):
        refs = [AttributeRef("t", c) for c in ("a/b", "a_b", "a b", "a:b")]
        for ref in refs[:3]:
            spool.add_values(ref, ["v"])
        assert [self._name(spool, r) for r in refs[:3]] == [
            "t__a_b.vals",
            "t__a_b__2.vals",
            "t__a_b__3.vals",
        ]
        # The lowest free suffix is taken, whether freed by a discard or a
        # name held only as a reservation.
        spool.discard(refs[1])
        assert spool.reserve_name(refs[3]) == "t__a_b__2.vals"
        spool.add_values(refs[1], ["w"])
        assert self._name(spool, refs[1]) == "t__a_b__4.vals"
        spool.register(
            write_value_file(refs[3], spool.root / "t__a_b__2.vals", ["x"])
        )
        assert self._name(spool, refs[3]) == "t__a_b__2.vals"


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
