"""Runner-level tracing: coverage on a paper dataset, faults, metrics.

The byte-exactness matrix for traced runs lives in
``tests/test_validator_agreement.py::TestTracedPipelineExactness``; this
file covers the remaining acceptance surface: the span tree accounts for
(almost) all of the wall clock on the paper's BioSQL workload, it stays
well-formed when a worker dies and its task is requeued, and the runner
feeds the process-global metrics registry.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.datagen import generate_biosql
from repro.db import Column, Database, DataType, TableSchema
from repro.obs import coverage, get_registry, phase_summary


def _assert_no_orphans(trace: dict) -> None:
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        if span["parent"] is not None:
            assert span["parent"] in by_id, f"orphan span: {span}"


def _fault_db() -> Database:
    """Two small tables; ``t0.c0`` is the fault hook's marked attribute."""
    db = Database("tracefault")
    t0 = db.create_table(
        TableSchema(
            "t0",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    t1 = db.create_table(
        TableSchema(
            "t1",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    for row in range(20):
        t0.insert({"id": row, "c0": row % 12})
    for row in range(12):
        t1.insert({"id": row + 3, "c0": row % 12})
    return db


class TestCoverage:
    def test_biosql_trace_covers_wall_clock(self):
        """Acceptance gate: top-level spans cover >= 95% of the run."""
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
                sampling_size=4,
                trace=True,
            ),
        )
        trace = result.trace
        assert trace is not None
        covered = coverage(trace)
        assert covered >= 0.95, (
            f"span tree covers only {covered:.1%} of wall clock: "
            f"{phase_summary(trace)}"
        )
        # Per-task spans attributed to worker pids, not the parent's.
        root_pid = next(
            s["pid"] for s in trace["spans"] if s["parent"] is None
        )
        task_pids = {
            s["pid"] for s in trace["spans"] if s["name"].startswith("task:")
        }
        assert task_pids and root_pid not in task_pids

    def test_sequential_run_is_also_covered(self):
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(strategy="merge-single-pass", trace=True),
        )
        assert coverage(result.trace) >= 0.95
        # No pool involved: every span was stamped by this process.
        assert {s["pid"] for s in result.trace["spans"]} == {
            result.trace["spans"][0]["pid"]
        }

    def test_untraced_run_carries_no_trace(self):
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(db, DiscoveryConfig(strategy="brute-force"))
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestFaultTolerance:
    def test_worker_death_requeue_leaves_no_orphan_spans(
        self, tmp_path, monkeypatch
    ):
        """A requeued validation task yields one span under ``validate``.

        The fault hook kills the first worker that picks up a brute-force
        chunk touching ``t0.c0``; the pool requeues the chunk on a
        replacement worker and the run still converges.
        """
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        result = discover_inds(
            _fault_db(),
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
                trace=True,
            ),
        )
        assert (tmp_path / "pool-fault-fired").exists(), "fault never fired"
        assert result.pool_stats["tasks_requeued"] >= 1
        trace = result.trace
        _assert_no_orphans(trace)
        by_id = {span["id"]: span for span in trace["spans"]}
        task_spans = [
            s for s in trace["spans"] if s["name"].startswith("task:")
        ]
        assert task_spans
        for span in task_spans:
            assert by_id[span["parent"]]["name"] == "validate"
        # The dispatcher dedups done-messages by task id: the killed
        # worker's task appears once, annotated with its retry count.
        requeued = [
            s for s in task_spans if s["attrs"].get("requeues", 0) >= 1
        ]
        assert requeued, "no span recorded the requeue"
        ids = [s["attrs"]["task_id"] for s in task_spans]
        assert len(ids) == len(set(ids)), "duplicate task spans"
        # Converged to the sequential answer despite the requeue.
        sequential = discover_inds(
            _fault_db(),
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
            ),
        )
        assert result.satisfied == sequential.satisfied


class TestRunnerMetrics:
    def test_discovery_populates_registry(self):
        registry = get_registry()
        before = registry.snapshot()
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
            ),
        )
        after = registry.snapshot()

        def delta(name: str) -> float:
            return after["counters"].get(name, 0.0) - before["counters"].get(
                name, 0.0
            )

        assert delta("discoveries_total") == 1.0
        # No sampling pretest here, so every post-pretest candidate got a
        # validation decision.
        assert delta("inds_validated_total") == result.candidates_after_pretests
        assert delta("inds_satisfied_total") == result.satisfied_count
        assert delta("pool_tasks_total{kind=brute-force}") > 0
        hist = after["histograms"]["validate_seconds"]
        prior = before["histograms"].get("validate_seconds", {"count": 0})
        assert hist["count"] == prior["count"] + 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_pool_task_counters_match_pool_stats(self, workers):
        registry = get_registry()
        before = registry.snapshot()["counters"].get(
            "pool_tasks_total{kind=brute-force}", 0.0
        )
        result = discover_inds(
            _fault_db(),
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=workers,
            ),
        )
        after = registry.snapshot()["counters"].get(
            "pool_tasks_total{kind=brute-force}", 0.0
        )
        if workers == 1:
            assert result.pool_stats is None  # sequential: no pool, no series
            assert after == before
        else:
            assert after - before == result.pool_stats["tasks_by_kind"][
                "brute-force"
            ]

    def test_pool_stats_round_trip_through_to_dict(self):
        """Validation pool counters survive ``to_dict`` and a JSON round trip."""
        config = DiscoveryConfig(
            strategy="brute-force",
            sampling_size=2,
            pretests=PretestConfig(cardinality=True, max_value=False),
        )
        sequential = discover_inds(_fault_db(), config)
        pooled = discover_inds(
            _fault_db(), dataclasses.replace(config, validation_workers=2)
        )
        kinds = pooled.pool_stats["tasks_by_kind"]
        assert kinds.keys() == {"brute-force"} and kinds["brute-force"] > 0
        document = json.loads(json.dumps(pooled.to_dict()))
        assert document["pool"]["tasks_by_kind"] == kinds
        assert (
            document["pool"]["tasks_completed"]
            == pooled.pool_stats["tasks_completed"]
            == sum(kinds.values())
        )
        # Export, pretest and validation counters match the in-process run.
        assert pooled.export_values_scanned == sequential.export_values_scanned
        assert pooled.export_values_written == sequential.export_values_written
        assert pooled.sampling_refuted == sequential.sampling_refuted
        assert (
            pooled.validator_stats.items_read
            == sequential.validator_stats.items_read
        )
        assert sequential.pool_stats is None
        assert json.loads(json.dumps(sequential.to_dict()))["pool"] is None
