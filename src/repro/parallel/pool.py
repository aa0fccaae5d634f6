"""Persistent worker pool: a generic task-execution substrate.

PR 2 parallelised brute-force validation by forking a fresh
``ProcessPoolExecutor`` inside every ``validate()`` call; PR 3 replaced that
with a persistent fleet behind one work-stealing queue, but the fleet could
run exactly one shape of work (brute-force chunks) for exactly one caller at
a time.  This revision generalises both axes:

* **Typed tasks.**  Every queued task carries a ``kind`` resolved through
  the registry in :mod:`repro.parallel.tasks`; the worker loop no longer
  knows what a task *does*, only how to open the spool it runs against.
  Brute-force chunks and merge byte-range partitions ship as built-in
  kinds, and one job may mix kinds freely.

* **Concurrent jobs.**  A dedicated dispatcher thread owns the result pipes
  and routes messages to per-job states, so any number of caller threads
  can :meth:`WorkerPool.run_job` simultaneously — the shape ``repro-ind
  serve`` needs to multiplex overlapping requests over one warm fleet.
  Each ``run_job`` returns its own per-job :class:`PoolStats` delta next to
  the outcomes, so callers can surface pool behaviour per request.

The warm-handle story is unchanged and now shared across kinds: workers
keep an LRU of parsed :class:`~repro.storage.sorted_sets.SpoolDirectory`
indexes, so a merge partition scheduled after a brute-force chunk over the
same spool reuses the same warm handle
(``PoolStats.spool_handle_reuses`` counts those wins, per kind in
``tasks_by_kind``).

Correctness is inherited, not re-proven: every task is executed by an
unchanged sequential validator, and each task's result is a deterministic
function of the spool contents and the task itself, so decisions and summed
counters are identical to the sequential run no matter which worker ran it
or in what order — the agreement suite asserts this per seed for both
built-in kinds.

Fault tolerance uses an at-least-once/idempotent scheme: workers announce
``claim`` before executing and ``done`` after; the dispatcher requeues the
claimed-but-unfinished tasks of any worker that died and spawns a
replacement, and duplicate ``done`` messages (possible only after a requeue
race) are dropped by task id.  Requeuing is therefore always safe, and a
worker crash costs one task's worth of repeated work, never a wrong or
missing decision.

Each worker reports over a result pipe of its own, of which it holds the
only write end.  A worker that dies mid-message -- killed by the OOM
killer, say -- therefore truncates nothing but its own pipe, which the
dispatcher reads to EOF and drops.  With one result queue shared by all
workers, such a death left the queue's cross-process write lock held (or a
torn frame in the shared pipe) and silenced every surviving worker: the
pool wedged.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable

from repro.core.candidates import Candidate
from repro.errors import DiscoveryError
from repro.obs.metrics import get_registry
from repro.obs.trace import stamp
from repro.parallel.tasks import (
    GraphNode,
    PoolTask,
    ShardOutcome,
    TaskSpec,
    merge_shard_outcomes,
    resolve_task_kind,
)
from repro.storage.sorted_sets import SpoolDirectory

__all__ = [
    "GraphNode",
    "GraphResult",
    "JobResult",
    "PoolStats",
    "PoolTask",
    "ShardOutcome",
    "TaskSpec",
    "WorkerPool",
    "merge_pool_stat_dicts",
    "merge_shard_outcomes",
    "run_specs",
]

#: How many spool directories one worker keeps warm (parsed index, interned
#: attribute ids).  Handles hold no file descriptors — cursors are opened and
#: closed per task — so the only cost of a cached entry is memory.  The cache
#: is shared by every task kind: a merge partition lands on the handle a
#: brute-force chunk warmed, and vice versa.
WARM_SPOOL_LIMIT = 8

#: Seconds without any queue message for a job before the dispatcher
#: suspects a task was lost in the tiny window between a worker dequeuing it
#: and announcing the claim (only possible if the worker died exactly there)
#: and requeues the unclaimed remainder.  Duplicate execution is harmless —
#: ``done`` messages are deduplicated by task id — so this can err toward
#: firing; it only fires at all after a worker death was actually observed
#: during the job's lifetime.
STALL_TIMEOUT_SECONDS = 2.0

#: Give up on a task after this many requeues.  Requeues happen only after
#: worker deaths, so hitting the cap means the task *reliably* kills its
#: worker (OOM, native crash in decoding) — respawning forever would hang
#: the job and leak a process every cycle.  Failing the job loudly is the
#: only honest outcome.
MAX_TASK_REQUEUES = 3

#: How often (seconds) the dispatcher reaps dead workers and checks stalls
#: even while result messages keep arriving — a busy queue must not starve
#: crash recovery for the job whose worker just died.
_MAINTENANCE_INTERVAL = 0.25

_FAULT_ATTR_ENV = "REPRO_POOL_FAULT_ATTR"
_FAULT_ONCE_DIR_ENV = "REPRO_POOL_FAULT_ONCE_DIR"

#: Pool lifecycle events (worker spawn/death/requeue/reap) log here; wire a
#: handler via ``repro-ind --log-level`` or the standard ``logging`` config.
logger = logging.getLogger("repro.parallel.pool")


@dataclass
class PoolStats:
    """Counters of pool activity (monotonic, additive).

    One instance lives on the pool for its lifetime totals; each
    :meth:`WorkerPool.run_job` additionally returns a fresh instance holding
    that job's delta, which is what ``DiscoveryResult.pool_stats`` and the
    per-request ``serve`` output surface.
    """

    jobs: int = 0
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_requeued: int = 0
    workers_spawned: int = 0
    workers_replaced: int = 0
    workers_reaped: int = 0
    spool_handle_reuses: int = 0
    #: Completed tasks per task kind, e.g. ``{"brute-force": 12}``.
    tasks_by_kind: dict[str, int] = field(default_factory=dict)

    def count_kind(self, kind: str) -> None:
        """Bump the completed-task counter of ``kind``."""
        self.tasks_by_kind[kind] = self.tasks_by_kind.get(kind, 0) + 1

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for JSON reports and the ``serve`` stats lines."""
        return {
            "jobs": self.jobs,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_completed": self.tasks_completed,
            "tasks_requeued": self.tasks_requeued,
            "workers_spawned": self.workers_spawned,
            "workers_replaced": self.workers_replaced,
            "workers_reaped": self.workers_reaped,
            "spool_handle_reuses": self.spool_handle_reuses,
            "tasks_by_kind": dict(sorted(self.tasks_by_kind.items())),
        }


@dataclass
class JobResult:
    """What one :meth:`WorkerPool.run_job` produced.

    ``outcomes`` are ordered by task id (i.e. by the caller's spec order);
    ``stats`` is this job's own counter delta, independent of the pool's
    lifetime :attr:`WorkerPool.stats`.  ``task_spans`` carries one
    worker-stamped span dict per completed task (ordered by task id, each
    annotated with ``task_id`` and its requeue count) for callers that
    assemble a request trace; pure observability, never folded into
    outcomes.
    """

    outcomes: list[ShardOutcome]
    stats: PoolStats
    task_spans: list[dict] = field(default_factory=list)


@dataclass
class GraphResult:
    """What one :meth:`WorkerPool.run_graph` produced.

    Keyed by node id (the node's position in the caller's list) rather than
    returned as a dense list, because cancelled nodes have no outcome:
    ``outcomes`` holds every node that executed, ``cancelled`` the node ids
    the gate vetoed before dispatch.  ``stats`` and ``task_spans`` mirror
    :class:`JobResult` (spans keyed by node id here).
    """

    outcomes: dict[int, ShardOutcome]
    stats: PoolStats
    task_spans: dict[int, dict] = field(default_factory=dict)
    cancelled: set[int] = field(default_factory=set)


def merge_pool_stat_dicts(parts: list[dict | None]) -> dict | None:
    """Fold per-phase pool-stats dicts into one pipeline-wide summary.

    ``discover_inds`` runs up to three pool jobs per call (spool export,
    sampling pretest, validation), each reporting its own
    :meth:`PoolStats.as_dict` delta; the result object surfaces their sum
    so ``tasks_by_kind`` covers the whole pipeline.  ``None`` entries
    (phases that ran in-process) are skipped; all-``None`` input returns
    ``None``, meaning no pool ran at all.
    """
    live = [part for part in parts if part]
    if not live:
        return None
    merged = PoolStats()
    for part in live:
        for key, value in part.items():
            if key == "tasks_by_kind":
                for kind, count in value.items():
                    merged.tasks_by_kind[kind] = (
                        merged.tasks_by_kind.get(kind, 0) + count
                    )
            elif hasattr(merged, key):
                setattr(merged, key, getattr(merged, key) + value)
    return merged.as_dict()


def run_specs(
    pool: "WorkerPool | None",
    workers: int,
    spool_root: str,
    specs: list[TaskSpec],
) -> tuple[JobResult, bool]:
    """Run ``specs`` on ``pool``, or on a right-sized throwaway fleet.

    The one place both validation engines share their borrowed-vs-ephemeral
    pool policy: with ``pool=None`` a per-call :class:`WorkerPool` is built
    — never larger than the number of specs, since extra workers would have
    nothing to pull — and drained afterwards; a supplied pool is borrowed
    and left running.  Returns ``(job, ephemeral)`` so callers can report
    ``pool_warm`` honestly.
    """
    ephemeral = pool is None
    if ephemeral:
        pool = WorkerPool(min(workers, max(len(specs), 1)))
    try:
        return pool.run_job(spool_root, specs), ephemeral
    finally:
        if ephemeral:
            pool.shutdown()


# ------------------------------------------------------------ worker process
def _payload_mentions(payload: object, attr: str) -> bool:
    """Does ``payload`` contain ``attr`` as a string, at any tuple depth?

    The kind-agnostic half of the fault hook's trigger: tasks without
    candidates (``spool-export`` units are plain nested tuples carrying
    their qualified attribute names) can still be marked for a crash by
    naming the attribute.  Only ever called on the test-hook path.
    """
    if isinstance(payload, str):
        return payload == attr
    if isinstance(payload, (tuple, list)):
        return any(_payload_mentions(item, attr) for item in payload)
    return False


def _maybe_inject_fault(task: PoolTask) -> None:
    """Test hook: die once, hard, when a task touches the marked attribute.

    Only active when ``REPRO_POOL_FAULT_ATTR`` names an attribute one of the
    task's candidates uses — or, for candidate-free kinds like
    ``spool-export``, an attribute whose qualified name appears in the task
    payload.  With ``REPRO_POOL_FAULT_ONCE_DIR`` set, an
    ``O_EXCL`` marker file limits the crash to exactly one worker, so the
    requeued task succeeds on the replacement — the shape the lifecycle
    tests need.  ``os._exit`` deliberately skips all cleanup: a real worker
    death (OOM kill, segfault) does not flush queues either.
    """
    attr = os.environ.get(_FAULT_ATTR_ENV)
    if not attr:
        return
    touched = any(
        attr in (c.dependent.qualified, c.referenced.qualified)
        for c in task.candidates
    ) or _payload_mentions(task.payload, attr)
    if not touched:
        return
    marker_dir = os.environ.get(_FAULT_ONCE_DIR_ENV)
    if marker_dir:
        try:
            fd = os.open(
                os.path.join(marker_dir, "pool-fault-fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return  # the fault already fired once; behave normally now
        os.close(fd)
    os._exit(17)


def _open_warm(
    handles: "OrderedDict[str, tuple[tuple, SpoolDirectory]]", root: str
) -> tuple[SpoolDirectory, bool]:
    """Open ``root`` through the worker's warm-handle cache (LRU, bounded).

    A cached handle counts as warm only while the spool's ``index.json``
    is provably the same file — a re-export to the same path (explicit
    ``spool_dir``, cache rebuild, a partial delta re-export) must never be
    validated against a stale parsed index, because stale per-block
    metadata could silently skip live blocks under ``skip_scan``.  The
    identity stamp is ``(mtime_ns, size, inode)``: mtime alone misses a
    rewrite landing within one clock tick of the original (coarse
    filesystem timestamps make that reachable for back-to-back delta
    rounds), but ``save_index`` always publishes via ``os.replace`` of a
    freshly created temp file, so every rewrite carries a new inode even
    when size and mtime collide.  One ``stat`` per task buys that
    guarantee.
    """
    st = os.stat(os.path.join(root, "index.json"))
    stamp = (st.st_mtime_ns, st.st_size, st.st_ino)
    cached = handles.get(root)
    if cached is not None and cached[0] == stamp:
        handles.move_to_end(root)
        return cached[1], True
    spool = SpoolDirectory.open(root)
    handles[root] = (stamp, spool)
    handles.move_to_end(root)
    while len(handles) > WARM_SPOOL_LIMIT:
        handles.popitem(last=False)
    return spool, False


def _worker_loop(task_queue, results) -> None:
    """Long-lived worker: pull tasks until the ``None`` shutdown sentinel.

    The loop is kind-agnostic: it resolves every task's executor through the
    registry in :mod:`repro.parallel.tasks` and only owns the two concerns
    shared by all kinds — warm spool handles and the claim/done protocol.
    Every message is tagged with this worker's pid so the dispatcher can map
    claims to processes; ``claim`` strictly precedes ``done``/``error`` for
    a given task (one result pipe per worker — order is preserved), which is
    what makes dead-worker requeuing sound.

    Every completed task carries a worker-stamped timing span
    (:func:`repro.obs.trace.stamp`) on its outcome — two monotonic clock
    reads and a small dict, cheap enough to run unconditionally, and
    ``CLOCK_MONOTONIC`` is system-wide so the parent can place it directly
    on the request's timeline.
    """
    pid = os.getpid()
    handles: OrderedDict[str, tuple[tuple, SpoolDirectory]] = OrderedDict()
    while True:
        task = task_queue.get()
        if task is None:
            break
        results.send(("claim", pid, task.job_id, task.task_id))
        try:
            _maybe_inject_fault(task)
            executor = resolve_task_kind(task.kind)
            started = time.monotonic()
            spool, warm = _open_warm(handles, task.spool_root)
            try:
                outcome = executor(spool, task)
            except Exception:
                # Belt and braces on top of the mtime check in _open_warm:
                # drop the cached handle and retry cold exactly once.
                handles.pop(task.spool_root, None)
                spool, warm = _open_warm(handles, task.spool_root)
                warm = False
                outcome = executor(spool, task)
            outcome.span = stamp(
                f"task:{task.kind}",
                started,
                time.monotonic(),
                kind=task.kind,
                chunk_size=len(task.candidates),
                warm=warm,
            )
            results.send(("done", pid, task.job_id, task.task_id, outcome, warm))
        except Exception as exc:  # ship the failure, keep the worker alive
            results.send(("error", pid, task.job_id, task.task_id, repr(exc)))


# ------------------------------------------------------------------- the pool
@dataclass
class _JobState:
    """Book-keeping for one in-flight :meth:`WorkerPool.run_job`."""

    job_id: int
    tasks: dict[int, PoolTask]
    #: The pool-wide death generation when this job started; the stall
    #: fallback only acts on deaths observed *after* that point.
    birth_generation: int
    outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    task_spans: dict[int, dict] = field(default_factory=dict)  # by task_id
    claims: dict[int, int] = field(default_factory=dict)  # task_id -> pid
    requeues: dict[int, int] = field(default_factory=dict)  # task_id -> count
    stall_requeue_generation: dict[int, int] = field(default_factory=dict)
    last_progress: float = field(default_factory=time.monotonic)
    stats: PoolStats = field(default_factory=PoolStats)
    error: DiscoveryError | None = None
    done: threading.Event = field(default_factory=threading.Event)
    # -- graph jobs only (run_graph); defaults keep run_job untouched ------
    #: Graph jobs hold back dependent nodes: ``tasks`` then contains only
    #: the *released* nodes (so requeue/stall/sweep machinery sees exactly
    #: the work that is actually in flight), while ``node_specs`` keeps the
    #: full plan and ``remaining``/``dependents`` drive the release cascade.
    is_graph: bool = False
    node_specs: dict[int, TaskSpec] | None = None
    dependents: dict[int, list[int]] = field(default_factory=dict)
    remaining: dict[int, int] = field(default_factory=dict)
    cancelled: set[int] = field(default_factory=set)
    node_count: int = 0
    gate: object = None
    on_complete: object = None
    spool_root: str | None = None

    def fail(self, error: DiscoveryError) -> None:
        """Mark the job failed and release its waiting caller."""
        if self.error is None:
            self.error = error
        self.done.set()

    def finished(self) -> bool:
        """Has every node this job will ever run reached a terminal state?"""
        if self.is_graph:
            return len(self.outcomes) + len(self.cancelled) >= self.node_count
        return len(self.outcomes) == len(self.tasks)


class WorkerPool:
    """Long-lived task-execution workers behind one shared work queue.

    The pool is created cheaply (no processes yet) and spawns its workers —
    plus one parent-side dispatcher thread that owns the result pipes — on
    the first :meth:`run_job`; it then survives any number of jobs until
    :meth:`shutdown` drains it.  One pool instance serves one parent
    process; it is not itself picklable and must not be shared across forks.

    ``run_job`` is thread-safe: any number of caller threads may have jobs
    in flight at once (``repro-ind serve`` multiplexes overlapping requests
    this way), and every job gets back its own outcomes and its own
    :class:`PoolStats` delta.  Tasks are typed — see
    :mod:`repro.parallel.tasks` — so one warm fleet executes brute-force
    chunks and merge partitions interchangeably.

    Use as a context manager or via
    :class:`repro.core.runner.DiscoverySession`; passing the pool to the
    validation engines (or ``discover_inds(..., pool=...)``) makes every
    call reuse the warm fleet instead of forking a fresh one.

    ``shutdown`` is idempotent — a second call is a no-op — and a drained
    pool refuses further jobs with :class:`~repro.errors.DiscoveryError`.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        """Create an idle pool of ``workers`` processes (spawned lazily).

        ``start_method`` overrides the platform's multiprocessing start
        method (``fork``/``spawn``/``forkserver``); the protocol works
        identically under all of them because tasks carry only picklable
        paths, candidates and payloads, never handles.  (Task kinds
        registered dynamically at runtime — rather than at import time of a
        module workers also import — are visible to workers only under
        ``fork``.)
        """
        if workers < 1:
            raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
        self._workers_target = workers
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._task_queue = None
        #: Read ends of the workers' result pipes, until each reaches EOF.
        self._readers: list = []
        self._procs: list = []
        self._ever_dead_pids: set[int] = set()
        self._started = False
        self._closed = False
        self._job_counter = 0
        self._jobs: dict[int, _JobState] = {}
        self._lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._dispatcher_stop = threading.Event()
        self._death_generation = 0
        self._last_activity = time.monotonic()
        self.stats = PoolStats()

    # -- lifecycle ---------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured fleet size (the pool respawns toward this number)."""
        return self._workers_target

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool accepts no jobs."""
        return self._closed

    @property
    def started(self) -> bool:
        """True once the first job spawned the fleet (queues/dispatcher live).

        Stays true after :meth:`reap_idle` drains the worker processes —
        the next job simply respawns them.
        """
        return self._started

    @property
    def alive_workers(self) -> int:
        """Worker processes currently alive — the cost model's warmth signal.

        Zero before the first job and after :meth:`reap_idle`; in both
        cases the next pooled job pays worker startup, so a cost model
        should only drop its startup term when this is positive.
        """
        with self._lock:
            return sum(1 for proc in self._procs if proc.is_alive())

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself (workers still lazy)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain the fleet."""
        self.shutdown()

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            if self._started:
                return
            self._task_queue = self._ctx.Queue()
            for _ in range(self._workers_target):
                self._spawn_worker()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="pool-dispatcher", daemon=True
            )
            self._dispatcher.start()
            self._started = True
            self._last_activity = time.monotonic()

    def _spawn_worker(self) -> None:
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._task_queue, writer),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end, so its exit -- clean or
        # not -- is the pipe's EOF.
        writer.close()
        self._readers.append(reader)
        self._procs.append(proc)
        self.stats.workers_spawned += 1
        get_registry().inc("pool_workers_spawned_total")
        logger.debug("spawned pool worker pid=%s", proc.pid)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Drain the fleet: sentinel every worker, join, terminate stragglers.

        Safe to call any number of times (double shutdown is a documented
        no-op) and safe to call on a pool that never started.  Jobs still in
        flight fail with :class:`~repro.errors.DiscoveryError` rather than
        hang; callers draining a service should let their requests finish
        first (``repro-ind serve`` does).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            for state in self._jobs.values():
                state.fail(DiscoveryError("worker pool is shut down"))
            self._jobs.clear()
        if not started:
            return
        self._dispatcher_stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        for _ in self._procs:
            self._task_queue.put(None)
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        for reader in self._readers:
            reader.close()
        self._readers.clear()
        self._task_queue.close()
        self._task_queue.cancel_join_thread()

    def reap_idle(
        self, max_idle_seconds: float = 0.0, timeout: float = 5.0
    ) -> int:
        """Drain an idle fleet without closing the pool; returns workers reaped.

        An adaptive session that keeps routing requests to sequential
        engines would otherwise pin a warm fleet of processes doing
        nothing; this releases them once the pool has had no job activity
        for ``max_idle_seconds``.  The pool stays open: the next
        :meth:`run_job` simply respawns toward the configured fleet size
        (counted in ``workers_spawned`` again, plus ``workers_reaped``
        here), at the usual cold-start price.  A busy pool (jobs in
        flight), a never-started pool, or one active too recently reaps
        nothing and returns 0.

        The whole drain runs under the pool lock, so a concurrent
        ``run_job`` blocks until the victims consumed their shutdown
        sentinels — sentinels can therefore never poison the workers that
        job respawns.
        """
        with self._lock:
            if (
                not self._started
                or self._closed
                or self._jobs
                or not self._procs
            ):
                return 0
            if time.monotonic() - self._last_activity < max_idle_seconds:
                return 0
            victims = list(self._procs)
            self._procs.clear()
            for _ in victims:
                self._task_queue.put(None)
            deadline = time.monotonic() + timeout
            for proc in victims:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            for proc in victims:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                # Reaped pids must not be mistaken for crashes by the claim
                # router if a stale claim message ever surfaces later.
                self._ever_dead_pids.add(proc.pid)
            self.stats.workers_reaped += len(victims)
            get_registry().inc("pool_workers_reaped_total", len(victims))
            logger.info(
                "reaped %s idle pool worker(s): %s",
                len(victims),
                [proc.pid for proc in victims],
            )
            return len(victims)

    # -- dispatch ----------------------------------------------------------
    def run_job(self, spool_root: str, specs: list[TaskSpec]) -> JobResult:
        """Execute every spec against ``spool_root``; return outcomes + stats.

        Specs are enqueued in order (callers put the heaviest first) and
        workers pull them as they finish — the work-stealing hand-out.  The
        call blocks until every task has exactly one outcome, requeuing the
        tasks of any worker that died mid-task and replacing the worker.  A
        task that fails *in* its executor (not by worker death) raises
        :class:`~repro.errors.DiscoveryError` after one cold retry inside
        the worker.  Thread-safe: concurrent ``run_job`` calls interleave
        over the same fleet, each getting its own results and stats delta.
        """
        for spec in specs:
            resolve_task_kind(spec.kind)  # unknown kinds fail in the caller
        if not specs:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            return JobResult(outcomes=[], stats=PoolStats())
        self._ensure_started()
        with self._lock:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            # Respawn a fleet reap_idle released; a no-op on the hot path
            # (the fleet is already at target size).
            while len(self._procs) < self._workers_target:
                self._spawn_worker()
            self._job_counter += 1
            job_id = self._job_counter
            tasks = {
                index: PoolTask(
                    job_id=job_id,
                    task_id=index,
                    kind=spec.kind,
                    spool_root=spool_root,
                    candidates=tuple(spec.candidates),
                    payload=tuple(spec.payload),
                )
                for index, spec in enumerate(specs)
            }
            state = _JobState(
                job_id=job_id,
                tasks=tasks,
                birth_generation=self._death_generation,
            )
            state.stats.jobs = 1
            state.stats.tasks_dispatched = len(tasks)
            self._jobs[job_id] = state
            self.stats.jobs += 1
            self.stats.tasks_dispatched += len(tasks)
        try:
            for task in tasks.values():
                self._task_queue.put(task)
        except (OSError, ValueError):  # shutdown closed the queue mid-put
            raise DiscoveryError("worker pool is shut down") from None
        try:
            while not state.done.wait(timeout=0.1):
                if self._closed:
                    raise DiscoveryError("worker pool is shut down")
                if (
                    self._dispatcher is not None
                    and not self._dispatcher.is_alive()
                ):
                    # Belt and braces under the dispatcher's own exception
                    # guard: should the thread die anyway (MemoryError,
                    # interpreter teardown), waiting would hang forever.
                    raise DiscoveryError("pool dispatcher thread died")
            if state.error is not None:
                raise state.error
            return JobResult(
                outcomes=[
                    state.outcomes[index] for index in sorted(state.outcomes)
                ],
                stats=state.stats,
                task_spans=[
                    state.task_spans[index]
                    for index in sorted(state.task_spans)
                ],
            )
        finally:
            with self._lock:
                self._jobs.pop(job_id, None)
                self._last_activity = time.monotonic()
            # Requeued tasks leave duplicates behind, and a failed job
            # leaves its pending tasks; sweep the shared queue so neither
            # wastes the next jobs' worker time (live jobs' tasks are
            # re-queued untouched).
            if state.requeues or len(state.outcomes) < len(tasks):
                self._sweep_stale_tasks()

    def run_graph(
        self,
        spool_root: str,
        nodes: list[GraphNode],
        *,
        gate=None,
        on_complete=None,
    ) -> GraphResult:
        """Drain a dependency graph of tasks with streaming release.

        Unlike :meth:`run_job`, which enqueues every spec up front, a graph
        job holds each node back until all of its ``deps`` have reached a
        terminal state (outcome landed, or cancelled); the dispatcher thread
        releases newly-eligible nodes the moment their last prerequisite's
        ``done`` message is handled, so different "phases" of a pipeline
        overlap freely on the same fleet with no inter-phase join.

        ``on_complete(node_id, outcome)`` runs on the dispatcher thread
        (serially, pool lock held) right after a node's outcome is recorded
        and before its dependents are released — the hook where a caller
        publishes whatever state dependents need (e.g. registering exported
        spool files before pretest chunks open them).  It must be fast and
        must not call back into the pool.

        ``gate(node_id, spec)`` runs at release time, also on the dispatcher
        thread: it may return the spec unchanged, a rewritten
        :class:`TaskSpec` (e.g. with refuted candidates dropped), or ``None``
        to cancel the node outright.  A cancelled node counts as satisfied
        for its dependents, so cancellation cascades structurally only
        through the gate's own decisions.  Exceptions from either callback
        fail the job loudly.

        Dependency cycles and out-of-range dependency ids raise
        :class:`~repro.errors.DiscoveryError` before anything is dispatched.
        Fault tolerance is inherited: released tasks requeue on worker death
        exactly like :meth:`run_job` tasks, and a released task that keeps
        killing its workers fails the job rather than wedging held
        dependents.
        """
        for node in nodes:
            resolve_task_kind(node.spec.kind)  # unknown kinds fail here
        if not nodes:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            return GraphResult(outcomes={}, stats=PoolStats())
        deps_by_node: list[tuple[int, ...]] = []
        for nid, node in enumerate(nodes):
            deduped = sorted(set(node.deps))
            for dep in deduped:
                if not 0 <= dep < len(nodes) or dep == nid:
                    raise DiscoveryError(
                        f"graph node {nid} has invalid dependency {dep!r}"
                    )
            deps_by_node.append(tuple(deduped))
        remaining = {nid: len(deps) for nid, deps in enumerate(deps_by_node)}
        dependents: dict[int, list[int]] = {}
        for nid, deps in enumerate(deps_by_node):
            for dep in deps:
                dependents.setdefault(dep, []).append(nid)
        # Kahn's algorithm on a scratch copy: a cycle would leave nodes
        # permanently unreleasable, which must fail before dispatch.
        scratch = dict(remaining)
        ready = [nid for nid, count in scratch.items() if count == 0]
        visited = 0
        while ready:
            nid = ready.pop()
            visited += 1
            for child in dependents.get(nid, ()):
                scratch[child] -= 1
                if scratch[child] == 0:
                    ready.append(child)
        if visited != len(nodes):
            raise DiscoveryError(
                f"task graph has a dependency cycle "
                f"({len(nodes) - visited} node(s) unreachable)"
            )
        self._ensure_started()
        with self._lock:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            while len(self._procs) < self._workers_target:
                self._spawn_worker()
            self._job_counter += 1
            job_id = self._job_counter
            state = _JobState(
                job_id=job_id,
                tasks={},
                birth_generation=self._death_generation,
                is_graph=True,
                node_specs={
                    nid: node.spec for nid, node in enumerate(nodes)
                },
                dependents=dependents,
                remaining=remaining,
                node_count=len(nodes),
                gate=gate,
                on_complete=on_complete,
                spool_root=spool_root,
            )
            state.stats.jobs = 1
            self._jobs[job_id] = state
            self.stats.jobs += 1
            # Registration and root release under one lock hold: no message
            # can interleave, so a graph is never observable half-released.
            for nid in range(len(nodes)):
                if state.error is not None:
                    break
                if remaining[nid] == 0:
                    self._release_graph_node(state, nid)
            if state.error is None and state.finished():
                state.done.set()  # every root cancelled, cascade drained all
        try:
            while not state.done.wait(timeout=0.1):
                if self._closed:
                    raise DiscoveryError("worker pool is shut down")
                if (
                    self._dispatcher is not None
                    and not self._dispatcher.is_alive()
                ):
                    raise DiscoveryError("pool dispatcher thread died")
            if state.error is not None:
                raise state.error
            return GraphResult(
                outcomes=dict(state.outcomes),
                stats=state.stats,
                task_spans=dict(state.task_spans),
                cancelled=set(state.cancelled),
            )
        finally:
            with self._lock:
                self._jobs.pop(job_id, None)
                self._last_activity = time.monotonic()
            if state.requeues or len(state.outcomes) < len(state.tasks):
                self._sweep_stale_tasks()

    def _release_graph_node(self, state: _JobState, node_id: int) -> None:
        """Gate and dispatch one graph node whose deps all landed (lock held)."""
        spec = state.node_specs[node_id]
        if state.gate is not None:
            try:
                spec = state.gate(node_id, spec)
            except Exception as exc:
                state.fail(
                    DiscoveryError(
                        f"graph gate failed releasing node {node_id}: {exc!r}"
                    )
                )
                return
        if spec is None:
            state.cancelled.add(node_id)
            self._satisfy_dependents(state, node_id)
            return
        task = PoolTask(
            job_id=state.job_id,
            task_id=node_id,
            kind=spec.kind,
            spool_root=state.spool_root,
            candidates=tuple(spec.candidates),
            payload=tuple(spec.payload),
        )
        state.tasks[node_id] = task
        state.stats.tasks_dispatched += 1
        self.stats.tasks_dispatched += 1
        try:
            # Putting under the lock is fine: mp.Queue.put only hands the
            # item to the feeder thread, it never blocks on consumers.
            self._task_queue.put(task)
        except (OSError, ValueError):  # shutdown closed the queue mid-put
            state.fail(DiscoveryError("worker pool is shut down"))

    def _satisfy_dependents(self, state: _JobState, node_id: int) -> None:
        """Count ``node_id`` terminal for its dependents; release the ready
        ones (lock held).  Recursion depth is bounded by the graph's phase
        depth (export → pretest → validation), not its width."""
        for child in state.dependents.get(node_id, ()):
            state.remaining[child] -= 1
            if state.remaining[child] == 0 and state.error is None:
                self._release_graph_node(state, child)

    # -- dispatcher thread -------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Own the result pipes: route messages, reap deaths, requeue stalls.

        Worker reaping runs both on queue idleness *and* on a fixed cadence
        while messages keep flowing — under a sustained multi-job load the
        queue may never go quiet, and a crashed worker's claimed task must
        still be requeued promptly.
        """
        last_maintenance = time.monotonic()
        while not self._dispatcher_stop.is_set():
            with self._lock:
                readers = list(self._readers)
            if not readers:  # every worker reaped idle
                self._dispatcher_stop.wait(0.05)
                ready = []
            else:
                try:
                    ready = wait_readable(readers, timeout=0.05)
                except (OSError, ValueError):  # closed mid-shutdown
                    return
            messages = []
            for reader in ready:
                try:
                    messages.append(reader.recv())
                except (EOFError, OSError):
                    # The worker is gone, mid-message at worst; the reaper
                    # requeues whatever it had claimed.
                    with self._lock:
                        if reader in self._readers:
                            self._readers.remove(reader)
                    reader.close()
            try:
                if messages:
                    with self._lock:
                        for message in messages:
                            self._handle_message(message)
                now = time.monotonic()
                if (
                    not messages
                    or now - last_maintenance > _MAINTENANCE_INTERVAL
                ):
                    last_maintenance = now
                    with self._lock:
                        self._reap_dead_workers()
                        self._requeue_stalled_unclaimed()
                        self._fail_wedged_graph_jobs()
            except Exception as exc:
                # The dispatcher is the only thread driving jobs forward; if
                # it died silently (respawn failing under memory pressure, a
                # queue racing shutdown) every in-flight run_job would hang
                # forever.  Fail the current jobs loudly and keep serving —
                # a persistent fault simply keeps failing jobs, which is
                # observable, unlike a dead thread.
                with self._lock:
                    for state in self._jobs.values():
                        state.fail(
                            DiscoveryError(f"pool dispatcher failed: {exc!r}")
                        )

    def _handle_message(self, message: tuple) -> None:
        """Apply one worker message to its job's state (lock held)."""
        kind = message[0]
        job_id, task_id = message[2], message[3]
        state = self._jobs.get(job_id)
        if state is None or task_id in state.outcomes:
            return  # stale job, or the duplicate of a requeue
        state.last_progress = time.monotonic()
        if kind == "claim":
            pid = message[1]
            if pid in self._ever_dead_pids:
                # The claimer was already reaped before its claim became
                # readable; recording it would strand the task (no future
                # reap will see this pid again).
                self._requeue(state, task_id)
            else:
                state.claims[task_id] = pid
        elif kind == "done":
            _, _, _, _, outcome, warm = message
            task_kind = state.tasks[task_id].kind
            state.outcomes[task_id] = outcome
            state.claims.pop(task_id, None)
            if outcome.span is not None:
                # One span per task, guaranteed by the dedup guard above:
                # the duplicate done of a requeued task never reaches here.
                span = dict(outcome.span)
                span["attrs"] = dict(
                    span.get("attrs", {}),
                    task_id=task_id,
                    requeues=state.requeues.get(task_id, 0),
                )
                state.task_spans[task_id] = span
            for stats in (self.stats, state.stats):
                stats.tasks_completed += 1
                stats.count_kind(task_kind)
                if warm:
                    stats.spool_handle_reuses += 1
            registry = get_registry()
            registry.inc("pool_tasks_total", kind=task_kind)
            if warm:
                registry.inc("spool_handle_reuses_total")
            if state.is_graph:
                # Publish-then-release ordering: on_complete runs before any
                # dependent can be dispatched, so whatever state it installs
                # (registered spool files, pretest verdicts) is visible to
                # every task that depends on this node.
                if state.on_complete is not None:
                    try:
                        state.on_complete(task_id, outcome)
                    except Exception as exc:
                        state.fail(
                            DiscoveryError(
                                f"graph on_complete callback failed for "
                                f"task {task_id}: {exc!r}"
                            )
                        )
                        return
                self._satisfy_dependents(state, task_id)
            if state.finished():
                state.done.set()
        elif kind == "error":
            pid, detail = message[1], message[4]
            state.fail(
                DiscoveryError(
                    f"pool worker {pid} failed executing "
                    f"{state.tasks[task_id].kind!r} task {task_id}: {detail}"
                )
            )

    def _requeue(self, state: _JobState, task_id: int) -> None:
        """Requeue one task, failing its job at :data:`MAX_TASK_REQUEUES`."""
        attempts = state.requeues.get(task_id, 0) + 1
        if attempts > MAX_TASK_REQUEUES:
            state.fail(
                DiscoveryError(
                    f"task {task_id} killed its worker {attempts} times "
                    f"(candidates "
                    f"{[str(c) for c in state.tasks[task_id].candidates]}); "
                    "giving up instead of respawning forever"
                )
            )
            return
        state.requeues[task_id] = attempts
        self._task_queue.put(state.tasks[task_id])
        self.stats.tasks_requeued += 1
        state.stats.tasks_requeued += 1
        get_registry().inc("pool_tasks_requeued_total")
        logger.warning(
            "requeued %r task %s of job %s (attempt %s of %s)",
            state.tasks[task_id].kind,
            task_id,
            state.job_id,
            attempts,
            MAX_TASK_REQUEUES,
        )

    def _reap_dead_workers(self) -> None:
        """Requeue dead workers' claims; respawn toward fleet size (lock held)."""
        dead = [proc for proc in self._procs if not proc.is_alive()]
        if not dead:
            return
        dead_pids = set()
        for proc in dead:
            proc.join(timeout=0)
            dead_pids.add(proc.pid)
            self._ever_dead_pids.add(proc.pid)
            self._procs.remove(proc)
            get_registry().inc("pool_workers_died_total")
            logger.warning(
                "pool worker pid=%s died (exitcode=%s)",
                proc.pid,
                proc.exitcode,
            )
        self._death_generation += 1
        for state in self._jobs.values():
            for task_id, pid in list(state.claims.items()):
                if pid in dead_pids and task_id not in state.outcomes:
                    del state.claims[task_id]
                    self._requeue(state, task_id)
        while len(self._procs) < self._workers_target:
            self._spawn_worker()
            self.stats.workers_replaced += 1
            get_registry().inc("pool_workers_replaced_total")

    def _requeue_stalled_unclaimed(self) -> None:
        """Stall fallback: requeue tasks nobody finished and nobody claims.

        Covers the one unobservable failure window — a worker dying between
        dequeuing a task and announcing its claim (the claim message can die
        unflushed with the worker).  Three gates keep it honest:

        * a worker death must have been observed *during the job* — without
          one, nothing can have been consumed-but-lost;
        * the shared **task queue must look empty** — while any task is
          still queued, an unclaimed pending task is most likely simply
          waiting its turn (typically behind *another* job's work during a
          crash storm), and requeuing it would both flood the queue and
          charge an innocent job's kill cap;
        * at most once per task per observed death generation.

        With the queue drained and the job quiet for
        :data:`STALL_TIMEOUT_SECONDS`, an unclaimed pending task really was
        consumed by a worker that died before its claim surfaced, so the
        requeue rightly counts toward :data:`MAX_TASK_REQUEUES` — this is
        exactly how a poison task whose claims always die with it is caught
        instead of being respawned forever.  Double execution stays
        harmless because ``done`` is deduplicated by task id.
        """
        if not self._jobs:
            return
        try:
            if not self._task_queue.empty():
                return
        except (OSError, ValueError):  # closed mid-shutdown
            return
        now = time.monotonic()
        for state in self._jobs.values():
            if self._death_generation <= state.birth_generation:
                continue
            if now - state.last_progress <= STALL_TIMEOUT_SECONDS:
                continue
            state.last_progress = now
            for task_id in state.tasks:
                if (
                    task_id not in state.outcomes
                    and task_id not in state.claims
                    and state.stall_requeue_generation.get(
                        task_id, state.birth_generation
                    )
                    < self._death_generation
                ):
                    state.stall_requeue_generation[task_id] = (
                        self._death_generation
                    )
                    self._requeue(state, task_id)

    def _fail_wedged_graph_jobs(self) -> None:
        """Fail graph jobs whose held nodes can never be released (lock held).

        A correct graph always makes progress: registration-plus-root-release
        and done-plus-dependent-release each happen atomically under the
        lock, so whenever the lock is free either some released task is
        still outstanding (in flight, queued, or awaiting requeue — then
        ``outcomes < tasks``) or every releasable node has been released.
        If all released work completed, yet terminal nodes don't cover the
        graph, the held remainder is unreachable — a scheduler or
        graph-construction bug.  Waiting would hang the caller forever;
        failing loudly after the stall window is the only honest outcome.
        """
        now = time.monotonic()
        for state in self._jobs.values():
            if (
                not state.is_graph
                or state.done.is_set()
                or state.error is not None
            ):
                continue
            if len(state.outcomes) < len(state.tasks):
                continue  # released work still outstanding: normal progress
            if state.finished():
                continue
            if now - state.last_progress <= STALL_TIMEOUT_SECONDS:
                continue
            held = (
                state.node_count
                - len(state.outcomes)
                - len(state.cancelled)
            )
            state.fail(
                DiscoveryError(
                    f"task graph wedged: {held} node(s) can never be "
                    f"released although every released task completed; "
                    f"this is a scheduler bug"
                )
            )

    def _sweep_stale_tasks(self) -> None:
        """Best-effort queue sweep: drop finished/failed jobs' leftover tasks.

        Pops everything currently readable and re-enqueues only tasks whose
        job is still live and still waiting on that task — concurrent jobs
        keep their work, dead jobs stop wasting workers.  Racing workers are
        harmless: a task they grab mid-sweep is either live (normal) or
        stale (its result is dropped by the job-id check).
        """
        keep = []
        while True:
            try:
                task = self._task_queue.get_nowait()
            except queue.Empty:
                break
            except (OSError, ValueError):  # closed mid-shutdown
                return
            with self._lock:
                state = self._jobs.get(task.job_id)
                live = state is not None and task.task_id not in state.outcomes
            if live:
                keep.append(task)
        try:
            for task in keep:
                self._task_queue.put(task)
        except (OSError, ValueError):
            # Shutdown closed the queue between the sweep's get and put;
            # swallowing here keeps run_job's finally from masking the
            # job's real error with a queue-closed complaint.
            return
