"""Heap-based single-pass validation — the paper's "current work" direction.

Sec. 7 closes with "in our current work we concentrate on improving the
performance of the single-pass algorithm"; the synchronisation overhead of the
subject–observer design is what made it lose to brute force in Tab. 2 despite
its better I/O profile (Fig. 5).  This module implements the natural
reformulation (which the authors later published as SPIDER): a k-way merge
over all attribute cursors driven by a min-heap.

Each attribute contributes one cursor.  The loop repeatedly pops the globally
smallest value ``v`` and the set ``S`` of attributes whose cursors currently
hold ``v``.  For every dependent attribute ``a ∈ S`` the surviving reference
set shrinks to ``refs(a) ∩ S`` — any reference not positioned at ``v`` cannot
contain it.  A dependent whose cursor exhausts with a non-empty reference set
has every one of its values matched: those candidates are satisfied.

The semantics and decisions are *identical* to the observer implementation
(property tests assert agreement); only the synchronisation differs — there
is none.  Attributes whose candidates are all decided close their cursors
early, matching the observer protocol's I/O behaviour.  Values are pulled
through the cursors' batched protocol (:class:`repro.storage.cursors.BatchReader`),
one ``pop`` call per value, so per-value cost on the hot path is a list
index, not a file read — while the lazy, exact commit keeps ``items_read``
identical to the per-value loop.
"""

from __future__ import annotations

import heapq

from repro._util import Stopwatch
from repro.core.candidates import Candidate
from repro.core.stats import DecisionCollector, ValidationResult
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.cursors import DEFAULT_BATCH_SIZE, BatchReader, IOStats
from repro.storage.sorted_sets import SpoolDirectory


class _AttributeCursor:
    """One attribute's position in the global merge (batched reads)."""

    __slots__ = ("ref", "reader", "live_refs", "ref_usage", "closed")

    def __init__(
        self, ref: AttributeRef, cursor, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        self.ref = ref
        self.reader = BatchReader(cursor, batch_size=batch_size)
        # Ids of surviving referenced attributes of this dependent side.
        self.live_refs: set[int] = set()
        # Number of undecided candidates where this attribute is referenced.
        self.ref_usage = 0
        self.closed = False

    @property
    def is_needed(self) -> bool:
        return bool(self.live_refs) or self.ref_usage > 0

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.reader.close()


class MergeSinglePassValidator:
    """All candidates in one synchronisation-free pass over every file.

    ``skip_scan=True`` enables the merge-side frontier skip: a *purely
    referenced* attribute (one that is no candidate's dependent side) only
    matters where some dependent still holding it could match, and every such
    dependent's future values are at or above its current heap value.  Before
    refilling a purely referenced cursor, the validator therefore seeks it
    past whole on-disk blocks whose recorded ``max`` is below the minimum
    current value of its live dependents (the *frontier*).  Decisions,
    ``satisfied`` and ``comparisons`` are unchanged — skipped values could
    only ever have formed matchless singleton groups — but ``items_read``
    legitimately drops (skipped values are tallied as ``blocks_skipped`` /
    ``values_skipped`` instead), which is why the flag defaults off.
    """

    name = "merge-single-pass"

    def __init__(
        self,
        spool: SpoolDirectory,
        skip_scan: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._spool = spool
        self._skip_scan = bool(skip_scan)
        self._batch_size = batch_size

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        collector = DecisionCollector(candidates, self.name)
        io = IOStats()
        with Stopwatch() as clock:
            self._run(collector, io)
        collector.stats.elapsed_seconds = clock.elapsed
        collector.stats.absorb_io(io)
        return collector.result()

    def _run(self, collector: DecisionCollector, io: IOStats) -> None:
        # Attributes are interned as dense integer ids for the duration of
        # the pass: heap entries, membership sets and usage counters all work
        # on ints, which keeps hashing and tuple tie-breaks off the per-value
        # hot path.  Ids follow the sorted attribute order, so every
        # tie-break and record sequence matches the AttributeRef-keyed
        # formulation exactly.
        involved: set[AttributeRef] = set()
        for candidate in collector.candidates:
            if candidate.dependent == candidate.referenced:
                raise ValidatorError(
                    f"trivial candidate {candidate} must not reach the validator"
                )
            involved.add(candidate.dependent)
            involved.add(candidate.referenced)
        order = sorted(involved)
        index = {ref: aid for aid, ref in enumerate(order)}
        states = [
            _AttributeCursor(
                ref, self._spool.open_cursor(ref, io), self._batch_size
            )
            for ref in order
        ]
        # holders[rid] = dependent ids still holding rid in live_refs; the
        # reverse of live_refs, kept in sync at every mutation so the frontier
        # of a referenced attribute is one min() over its live dependents.
        holders: list[set[int]] = [set() for _ in states]
        for candidate in collector.candidates:
            dep = index[candidate.dependent]
            rid = index[candidate.referenced]
            states[dep].live_refs.add(rid)
            states[rid].ref_usage += 1
            holders[rid].add(dep)

        # Decide empty-dependent candidates up front (vacuously satisfied),
        # exactly as the observer implementation does.
        for aid, state in enumerate(states):
            if state.live_refs and not state.reader.has_more():
                for rid in sorted(state.live_refs):
                    collector.record(
                        Candidate(state.ref, states[rid].ref), True, vacuous=True
                    )
                    states[rid].ref_usage -= 1
                    holders[rid].discard(aid)
                state.live_refs.clear()
        for state in states:
            if not state.is_needed:
                state.close()

        # Seed the heap with each needed attribute's first value.  current[]
        # mirrors the value each live attribute last pushed — a dependent's
        # future values are always >= its current entry, which is what makes
        # the frontier a sound skip bound.
        heap: list[tuple[str, int]] = []
        current: list[str] = [""] * len(states)
        for aid, state in enumerate(states):
            if state.closed:
                continue
            first = state.reader.pop()
            if first is not None:
                current[aid] = first
                heapq.heappush(heap, (first, aid))
            else:
                # Empty attribute that is only referenced: every dependent
                # with a value will drop it at its first merge step; an empty
                # referenced set can also be decided immediately.
                self._refute_all_into(aid, states, holders, collector)
                state.close()

        # One iteration per value read: ``is_needed`` is inlined and the heap
        # functions bound locally to keep Python calls off this loop.
        skip = self._skip_scan
        heappush = heapq.heappush
        heappop = heapq.heappop
        process_group = self._process_group
        group: list[int] = []
        while heap:
            value, aid = heappop(heap)
            group.clear()
            group.append(aid)
            while heap and heap[0][0] == value:
                group.append(heappop(heap)[1])
            process_group(group, states, holders, collector)
            for member in group:
                state = states[member]
                if state.closed or not (state.live_refs or state.ref_usage > 0):
                    state.close()
                    continue
                if skip and not state.live_refs and holders[member]:
                    # Purely referenced here: seek past whole blocks no live
                    # dependent can reach any more.  Conservative by design —
                    # a dependent in this very group may still show its old
                    # (= this group's) value, which only lowers the frontier.
                    frontier = min(current[dep] for dep in holders[member])
                    if frontier > value:
                        state.reader.skip_below(frontier)
                nxt = state.reader.pop()
                if nxt is None:
                    self._exhaust(state, member, states, holders, collector)
                else:
                    current[member] = nxt
                    heappush(heap, (nxt, member))

        undecided = collector.undecided
        if undecided:
            raise ValidatorError(
                "merge single-pass finished with undecided candidates: "
                + ", ".join(str(c) for c in undecided[:5])
            )
        for state in states:
            state.close()

    def _process_group(
        self,
        group: list[int],
        states: list[_AttributeCursor],
        holders: list[set[int]],
        collector: DecisionCollector,
    ) -> None:
        """Intersect every dependent's surviving references with the group."""
        present = set(group)
        comparisons = 0
        for member in group:
            state = states[member]
            live_refs = state.live_refs
            if not live_refs:
                continue
            comparisons += len(live_refs)
            dropped = live_refs - present
            if not dropped:
                continue
            for rid in sorted(dropped):
                live_refs.discard(rid)
                holders[rid].discard(member)
                collector.record(Candidate(state.ref, states[rid].ref), False)
                self._release_ref(states[rid])
        collector.stats.comparisons += comparisons

    def _exhaust(
        self,
        state: _AttributeCursor,
        aid: int,
        states: list[_AttributeCursor],
        holders: list[set[int]],
        collector: DecisionCollector,
    ) -> None:
        """A dependent ran out of values: its surviving candidates hold."""
        for rid in sorted(state.live_refs):
            collector.record(Candidate(state.ref, states[rid].ref), True)
            holders[rid].discard(aid)
            self._release_ref(states[rid])
        state.live_refs.clear()
        if not state.is_needed:
            state.close()

    @staticmethod
    def _release_ref(ref_state: _AttributeCursor) -> None:
        ref_state.ref_usage -= 1
        if not ref_state.is_needed:
            ref_state.close()

    def _refute_all_into(
        self,
        empty_rid: int,
        states: list[_AttributeCursor],
        holders: list[set[int]],
        collector: DecisionCollector,
    ) -> None:
        """An empty referenced attribute refutes all non-vacuous candidates."""
        empty_state = states[empty_rid]
        for aid, state in enumerate(states):
            if empty_rid in state.live_refs:
                state.live_refs.discard(empty_rid)
                holders[empty_rid].discard(aid)
                collector.record(
                    Candidate(state.ref, empty_state.ref), False
                )
                empty_state.ref_usage -= 1
                if not state.is_needed:
                    state.close()
