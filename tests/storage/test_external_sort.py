"""Tests for the bounded-memory external merge sort."""

import importlib
import os

import pytest

from repro.storage.external_sort import external_sort


class TestInMemoryPath:
    def test_sorts_and_dedupes(self):
        assert list(external_sort(["b", "a", "b", "c"])) == ["a", "b", "c"]

    def test_empty_input(self):
        assert list(external_sort([])) == []

    def test_single_value(self):
        assert list(external_sort(["x"])) == ["x"]


class TestSpillPath:
    def test_multi_run_merge(self, tmp_path):
        values = [f"v{i:03d}" for i in range(100)]
        import random

        rng = random.Random(3)
        shuffled = values * 2
        rng.shuffle(shuffled)
        out = list(
            external_sort(shuffled, max_items_in_memory=7, tmp_dir=str(tmp_path))
        )
        assert out == values

    def test_duplicates_across_runs_removed(self, tmp_path):
        # The same value in different runs must merge to one occurrence.
        data = ["dup"] * 50 + ["aaa", "zzz"]
        out = list(
            external_sort(data, max_items_in_memory=5, tmp_dir=str(tmp_path))
        )
        assert out == ["aaa", "dup", "zzz"]

    def test_run_files_cleaned_up(self, tmp_path):
        list(
            external_sort(
                [str(i) for i in range(40)],
                max_items_in_memory=4,
                tmp_dir=str(tmp_path),
            )
        )
        assert os.listdir(tmp_path) == []

    def test_run_files_cleaned_on_partial_consumption(self, tmp_path):
        gen = external_sort(
            [str(i) for i in range(40)], max_items_in_memory=4,
            tmp_dir=str(tmp_path),
        )
        next(gen)
        gen.close()  # abandon the generator mid-stream
        assert os.listdir(tmp_path) == []

    def test_values_with_newlines_survive_spill(self, tmp_path):
        data = ["a\nb", "a", "a\\nb", "z\r"]
        out = list(
            external_sort(data, max_items_in_memory=2, tmp_dir=str(tmp_path))
        )
        assert out == sorted(set(data))


class TestSpillStress:
    """The spill path at the tightest possible memory bounds (1..3 items)."""

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_tight_memory_matches_reference(self, tmp_path, limit):
        import random

        rng = random.Random(limit)
        data = [f"{rng.randint(0, 30):02d}" for _ in range(200)]
        out = list(
            external_sort(data, max_items_in_memory=limit, tmp_dir=str(tmp_path))
        )
        assert out == sorted(set(data))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_duplicate_heavy_input(self, tmp_path, limit):
        # 97% duplicates: every run holds the same value, the k-way merge
        # must still emit it exactly once.
        data = ["dup"] * 300 + ["aa", "zz"] + ["dup"] * 100
        out = list(
            external_sort(data, max_items_in_memory=limit, tmp_dir=str(tmp_path))
        )
        assert out == ["aa", "dup", "zz"]
        assert os.listdir(tmp_path) == []

    def test_all_identical_values(self, tmp_path):
        out = list(
            external_sort(["x"] * 50, max_items_in_memory=1, tmp_dir=str(tmp_path))
        )
        assert out == ["x"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("limit", [1, 2, 3])
    @pytest.mark.parametrize("consumed", [0, 1, 5])
    def test_abandoned_iterator_cleans_runs(self, tmp_path, limit, consumed):
        """Run files must vanish however early the consumer walks away."""
        gen = external_sort(
            [f"{i:02d}" for i in range(60)] * 2,
            max_items_in_memory=limit,
            tmp_dir=str(tmp_path),
        )
        for _ in range(consumed):
            next(gen)
        # While the generator is live its run files exist on disk...
        if consumed:
            assert len(os.listdir(tmp_path)) > 0
        gen.close()
        # ...abandoning it mid-stream must remove every one of them.
        assert os.listdir(tmp_path) == []

    def test_abandoned_by_garbage_collection(self, tmp_path):
        import gc

        gen = external_sort(
            [f"{i:02d}" for i in range(40)],
            max_items_in_memory=2,
            tmp_dir=str(tmp_path),
        )
        next(gen)
        del gen
        gc.collect()
        assert os.listdir(tmp_path) == []


class TestSpillThreshold:
    """A run spills exactly when ``max_items_in_memory`` values are held."""

    @pytest.mark.parametrize(
        "count, limit, runs",
        [
            (4, 5, 0),  # fits: sorted in memory, no file I/O
            (5, 5, 1),  # reaching the threshold spills, even at the end
            (9, 3, 3),
            (10, 3, 4),  # three full runs plus the remainder
            (0, 1, 0),
        ],
    )
    def test_runs_written(self, tmp_path, monkeypatch, count, limit, runs):
        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.storage.external_sort")
        written = []
        real_write_run = module._write_run

        def counting_write_run(buffer, tmp_dir):
            written.append(len(buffer))
            return real_write_run(buffer, tmp_dir)

        monkeypatch.setattr(module, "_write_run", counting_write_run)
        data = [f"{i:03d}" for i in reversed(range(count))]
        out = list(
            external_sort(data, max_items_in_memory=limit, tmp_dir=str(tmp_path))
        )
        assert out == sorted(data)
        assert len(written) == runs
        assert all(size <= limit for size in written)


class TestValidation:
    def test_rejects_zero_memory(self):
        with pytest.raises(ValueError):
            list(external_sort(["a"], max_items_in_memory=0))

    def test_matches_in_memory_reference(self, tmp_path):
        import random

        rng = random.Random(11)
        data = [rng.choice("abcdefgh") * rng.randint(1, 4) for _ in range(500)]
        expected = sorted(set(data))
        for limit in (1, 3, 10, 1000):
            got = list(
                external_sort(data, max_items_in_memory=limit,
                              tmp_dir=str(tmp_path))
            )
            assert got == expected, f"limit={limit}"
