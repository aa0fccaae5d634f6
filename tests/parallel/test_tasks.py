"""Unit tests of the typed task model and its worker-side registry.

The end-to-end behaviour of the two built-in kinds is covered by the
agreement suite and the pool lifecycle tests; this file pins the registry
contract (loud unknowns, no silent overwrites, pluggable custom kinds) and
the byte-range semantics of the ``merge-partition`` payload.
"""

from __future__ import annotations

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.core.stats import ValidatorStats
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.merge import make_partition_view, partition_bounds
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import (
    KIND_BRUTE_FORCE,
    KIND_MERGE_PARTITION,
    ShardOutcome,
    TaskSpec,
    register_task_kind,
    resolve_task_kind,
    task_kinds,
)
from repro.storage.sorted_sets import SpoolDirectory


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool", format="binary", block_size=4)
    for name, values in (
        ("a", ["apple", "pear", "zebra"]),
        ("b", ["apple", "banana", "pear", "quince", "zebra"]),
        ("c", ["banana", "quince"]),
    ):
        spool.add_values(AttributeRef("t", name), values)
    spool.save_index()
    return spool


class TestRegistry:
    def test_builtin_kinds_are_registered(self):
        kinds = task_kinds()
        assert KIND_BRUTE_FORCE in kinds
        assert KIND_MERGE_PARTITION in kinds

    def test_unknown_kind_is_loud_and_lists_alternatives(self):
        with pytest.raises(DiscoveryError, match="unknown task kind"):
            resolve_task_kind("nosuch")
        with pytest.raises(DiscoveryError, match=KIND_BRUTE_FORCE):
            resolve_task_kind("nosuch")

    def test_duplicate_registration_refused_without_replace(self):
        def executor(spool, task):
            raise AssertionError("never called")

        with pytest.raises(DiscoveryError, match="already registered"):
            register_task_kind(KIND_BRUTE_FORCE, executor)
        # The built-in stayed in place.
        assert resolve_task_kind(KIND_BRUTE_FORCE) is not executor

    def test_rejects_empty_kind(self):
        with pytest.raises(DiscoveryError, match="non-empty"):
            register_task_kind("", lambda spool, task: None)

    def test_custom_kind_runs_in_workers_under_fork(self, spool):
        """A dynamically registered kind executes on the fleet.

        Workers see runtime registrations only under the ``fork`` start
        method (they inherit the parent's registry); import-time
        registration is the portable path, as the module docstring says.
        """

        def count_values(spool_dir, task):
            counts = {
                str(c): spool_dir.get(c.referenced).count
                for c in task.candidates
            }
            return ShardOutcome(
                shard_index=task.task_id,
                decisions={c: True for c in task.candidates},
                vacuous=set(),
                stats=ValidatorStats(
                    validator="count-values",
                    items_read=sum(counts.values()),
                ),
            )

        register_task_kind("test-count-values", count_values, replace=True)
        try:
            with WorkerPool(2, start_method="fork") as pool:
                job = pool.run_job(
                    str(spool.root),
                    [
                        TaskSpec(
                            kind="test-count-values",
                            candidates=(_cand("a", "b"), _cand("c", "b")),
                        )
                    ],
                )
            assert job.outcomes[0].stats.items_read == 10  # 5 + 5
            assert job.stats.tasks_by_kind == {"test-count-values": 1}
        finally:
            # Leave no test kind behind for other tests' registry checks.
            import repro.parallel.tasks as tasks_module

            tasks_module._REGISTRY.pop("test-count-values", None)


class TestMergePartitionPayload:
    def test_full_range_payload_uses_the_bare_spool(self, spool):
        assert make_partition_view(spool, 0, 256) is spool

    def test_restricted_range_clips_cursors(self, spool):
        view = make_partition_view(spool, ord("b"), ord("q"))
        cursor = view.open_cursor(AttributeRef("t", "b"))
        assert cursor.read_batch(100) == ["banana", "pear"]
        cursor.close()

    def test_range_beyond_utf8_lead_bytes_is_rejected(self, spool):
        with pytest.raises(DiscoveryError, match="past every UTF-8 lead byte"):
            make_partition_view(spool, 0xF5, 0x100)

    def test_ranged_tasks_union_to_the_sequential_decisions(self, spool):
        """Explicit byte-range tasks through the pool tile the value space.

        This is the raw ``merge-partition`` task kind the ``range_split``
        escape hatch builds on: every range decides every candidate for its
        slice, and a candidate holds iff no range refuted it.
        """
        candidates = (_cand("a", "b"), _cand("c", "b"), _cand("b", "a"))
        sequential = BruteForceValidator(spool).validate(list(candidates))
        specs = [
            TaskSpec(
                kind=KIND_MERGE_PARTITION,
                candidates=candidates,
                payload=(lo, hi),
            )
            for lo, hi in partition_bounds(4)
        ]
        with WorkerPool(2) as pool:
            job = pool.run_job(str(spool.root), specs)
        assert len(job.outcomes) == len(specs)
        unioned = {
            candidate: all(
                outcome.decisions[candidate] for outcome in job.outcomes
            )
            for candidate in candidates
        }
        assert {str(c): ok for c, ok in unioned.items()} == {
            str(c): ok for c, ok in sequential.decisions.items()
        }
