"""Parallel validation engines over a shared read-only spool directory.

Candidate validation dominates discovery cost and parallelises along two
different axes, both dispatched through one shared task substrate:

===================  =====================================================
``tasks``            The typed task model: :class:`TaskSpec` /
                     :class:`PoolTask`, the task-kind registry
                     (:func:`register_task_kind`), and the two built-in
                     kinds — brute-force chunks and merge partitions.
``planner``          :class:`ShardPlanner` — cost-balanced partitions of
                     the candidate set, sized by spool value counts: whole
                     shards (LPT), small work-stealing chunks, or merge
                     groups cut along candidate-graph components.  Also
                     hosts the adaptive cost model: :func:`choose_engine`
                     predicts sequential vs pooled vs range-split cost per
                     request from the same stats, tuned by a persisted
                     :class:`CalibrationProfile`.
``pool``             :class:`WorkerPool` — persistent worker processes
                     behind one shared task queue; survives across
                     ``validate()`` and ``discover_inds`` calls, runs any
                     registered task kind, serves concurrent jobs from
                     multiple caller threads, requeues the tasks of dead
                     workers, keeps spool handles warm across kinds.
``engine``           :class:`ProcessPoolValidationEngine` — brute-force
                     chunks dispatched through a pool (per-call or
                     persistent); decisions and summed I/O identical to
                     the sequential validator.
``merge``            :class:`PartitionedMergeValidator` — the heap merge
                     split along candidate-graph components (decisions
                     *and* I/O counters identical to the sequential pass)
                     with first-byte ranges as an explicit escape hatch,
                     dispatched through the same pool.
===================  =====================================================

Workers always re-open the spool by path (``index.json`` describes every
file), never inherit handles — see the picklability contract on
:class:`repro.storage.sorted_sets.SpoolDirectory` and the file cursors.
"""

from repro.parallel.engine import ProcessPoolValidationEngine
from repro.parallel.merge import (
    ByteRangeCursor,
    PartitionSpoolView,
    PartitionedMergeValidator,
    boundary_string,
    first_byte,
    make_partition_view,
    partition_bounds,
)
from repro.parallel.planner import (
    CalibrationProfile,
    Chunk,
    EngineDecision,
    MergeGroup,
    Shard,
    ShardPlanner,
    calibration_path,
    choose_engine,
    load_calibration,
    pack_cost_groups,
)
from repro.parallel.pool import JobResult, PoolStats, WorkerPool
from repro.parallel.tasks import (
    KIND_BRUTE_FORCE,
    KIND_MERGE_PARTITION,
    PoolTask,
    ShardOutcome,
    TaskSpec,
    merge_shard_outcomes,
    register_task_kind,
    resolve_task_kind,
    task_kinds,
)

__all__ = [
    "ByteRangeCursor",
    "CalibrationProfile",
    "Chunk",
    "EngineDecision",
    "JobResult",
    "KIND_BRUTE_FORCE",
    "KIND_MERGE_PARTITION",
    "MergeGroup",
    "PartitionSpoolView",
    "PartitionedMergeValidator",
    "PoolStats",
    "PoolTask",
    "ProcessPoolValidationEngine",
    "Shard",
    "ShardOutcome",
    "ShardPlanner",
    "TaskSpec",
    "WorkerPool",
    "boundary_string",
    "calibration_path",
    "choose_engine",
    "first_byte",
    "load_calibration",
    "make_partition_view",
    "merge_shard_outcomes",
    "partition_bounds",
    "register_task_kind",
    "resolve_task_kind",
    "task_kinds",
]
