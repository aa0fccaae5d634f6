"""One measured process of the benchmark, in a fresh interpreter.

``run.py`` starts it as ``python child.py SPEC.json SPAWN_T``, where
``SPAWN_T`` is the parent's ``time.monotonic()`` just before the spawn
(CLOCK_MONOTONIC is one clock for every process on the machine, so spans
recorded here line up with the parent's timestamps).  The spec names the
mode and the file to write the result document to.  Modes:

* ``prepare`` -- generate a (workload, seed) input as CSV and compute its
  reference answer;
* ``oracle``  -- replay the watch edits on a copy of the pristine input and
  compute the reference answer of each round's directory state;
* ``setup``   -- nothing after ``import repro`` (a set-up time sample);
* ``oneshot`` -- ``load_csv_directory`` then ``discover_inds``, as
  ``repro-ind discover DIR`` runs them;
* ``watch``   -- one incremental ``DiscoverySession`` that reloads and
  rediscovers the directory every round, as ``repro-ind watch`` does,
  after the benchmark's own (untimed) seeded edit.

With ``traced`` set, ``oneshot`` and ``watch`` run their user path with
the program's own ``trace=True`` -- first, so it starts as cold as in an
untraced process -- and then call each layer's public function once, under
a span, on the pristine input.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from inputs import WORKLOADS, edit_round, generate

#: Top-level phase spans of the program's own trace that a round reports.
PHASES = ("profile", "export", "validate")


class Spans:
    """Driver-side spans (name, start, end, parent), kept in memory.

    Deliberately not ``repro.obs``: the benchmark must not measure the
    program with the program's own tracer, which later changes may touch.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic() if start is None else start,
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spans = Spans()
    with spans.span("process.import", start=float(sys.argv[2])):
        import repro  # noqa: F401  (the import is what this span times)
    result = MODES[spec["mode"]](spec, spans)
    result["spans"] = spans.records
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


# ------------------------------------------------------------------ modes
def prepare(spec: dict, spans: Spans) -> dict:
    from repro import load_csv_directory, write_csv_directory

    csv_dir = Path(spec["csv_dir"])
    write_csv_directory(generate(WORKLOADS[spec["workload"]], spec["seed"]), csv_dir)
    return {"states": [reference_pairs(load_csv_directory(csv_dir))]}


def oracle(spec: dict, spans: Spans) -> dict:
    from repro import load_csv_directory

    csv_dir = Path(spec["csv_dir"])
    states = []
    for round_no in range(1, spec["upto"] + 1):
        edit_round(csv_dir, spec["seed"], round_no)
        if round_no >= spec["have"]:
            states.append(reference_pairs(load_csv_directory(csv_dir)))
    return {"states": states}


def oneshot(spec: dict, spans: Spans) -> dict:
    from repro import DiscoveryConfig, discover_inds, load_csv_directory

    out = {"setup_done": spans.records[0]["end"]}
    config = DiscoveryConfig(trace=spec["traced"])
    out["rounds"] = [
        timed_round(
            spans,
            0,
            lambda: load_csv_directory(spec["csv_dir"]),
            lambda db: discover_inds(db, config),
        )
    ]
    out["peak_rss_mb"] = peak_rss_mb()
    if spec["traced"]:
        out["layers"] = call_layers(spec["csv_dir"], spans)
    return out


def watch(spec: dict, spans: Spans) -> dict:
    from repro import DiscoveryConfig, DiscoverySession, load_csv_directory
    from repro.obs.metrics import get_registry

    csv_dir = Path(spec["csv_dir"])
    out = {}
    config = DiscoveryConfig(
        incremental=True,
        reuse_spool=True,
        cache_dir=spec["cache_dir"],
        validation_workers=min(2, os.cpu_count() or 1),
        trace=spec["traced"],
    )
    with DiscoverySession(config) as session:
        rounds = [
            timed_round(spans, 0, lambda: load_csv_directory(csv_dir), session.discover)
        ]
        out["setup_done"] = time.monotonic()
        round_no = 0
        while round_no < spec["min_rounds"] or (
            spec["deadline"] is not None and time.monotonic() < spec["deadline"]
        ):
            round_no += 1
            edit_round(csv_dir, spec["seed"], round_no)
            rounds.append(
                timed_round(
                    spans,
                    round_no,
                    lambda: load_csv_directory(csv_dir),
                    session.discover,
                )
            )
        pool = session.pool_stats
        out["peak_rss_mb"] = peak_rss_mb()
    out["rounds"] = rounds
    out["pool"] = pool.as_dict() if pool is not None else {}
    out["cache_mb"] = disk_mb(Path(spec["cache_dir"]))
    out["counters"] = get_registry().snapshot()["counters"]
    if spec["traced"]:
        out["layers"] = call_layers(spec["pristine_dir"], spans)
    return out


def setup(spec: dict, spans: Spans) -> dict:
    return {"setup_done": spans.records[0]["end"]}


MODES = {
    "prepare": prepare,
    "oracle": oracle,
    "setup": setup,
    "oneshot": oneshot,
    "watch": watch,
}


# ---------------------------------------------------------------- helpers
def timed_round(spans: Spans, round_no: int, load, discover) -> dict:
    """One load + discover under a ``round`` span; a raise is recorded."""
    error = None
    with spans.span("round") as span:
        try:
            with spans.span("round.load"):
                db = load()
            with spans.span("round.discover"):
                result = discover(db)
        except Exception as exc:  # counted against error_rate by run.py
            error = f"{type(exc).__name__}: {exc}"
    doc = {"round": round_no, "seconds": span["end"] - span["start"]}
    if error is not None:
        doc["error"] = error
        return doc
    doc["satisfied"] = pairs(result.satisfied)
    doc["candidates"] = result.candidates_after_pretests
    doc["delta"] = result.delta
    doc["phases"] = phase_seconds(result.trace)
    return doc


def call_layers(csv_dir, spans: Spans) -> dict:
    """Call each layer's public function once, as the default config would."""
    from repro import (
        BruteForceValidator,
        DiscoveryConfig,
        MergeSinglePassValidator,
        load_csv_directory,
    )
    from repro.core.candidates import apply_pretests, generate_unique_ref_candidates
    from repro.db.stats import collect_column_stats
    from repro.storage.exporter import export_database

    config = DiscoveryConfig()
    with spans.span("db.load"):
        db = load_csv_directory(csv_dir)
    with spans.span("db.profile"):
        stats = collect_column_stats(db)
    with spans.span("candidates"):
        raw = generate_unique_ref_candidates(stats)
        survivors, _ = apply_pretests(raw, stats, config.pretests)
    needed = sorted({c.dependent for c in survivors} | {c.referenced for c in survivors})
    spool_root = tempfile.mkdtemp(prefix="perfbench-spool-")
    try:
        with spans.span("storage.export"):
            spool, exported = export_database(
                db,
                spool_root,
                attributes=needed,
                max_items_in_memory=config.max_items_in_memory,
                spool_format=config.spool_format,
                block_size=config.spool_block_size,
                workers=config.export_workers,
                compression=config.spool_compression,
                mmap_reads=config.resolved_mmap_reads,
            )
        with spans.span("validate.merge"):
            merge = MergeSinglePassValidator(spool).validate(survivors)
        with spans.span("validate.brute_force"):
            brute = BruteForceValidator(spool).validate(survivors)
        spool_mb = disk_mb(Path(spool_root))
    finally:
        shutil.rmtree(spool_root, ignore_errors=True)
    return {
        "rows": db.total_rows,
        "attributes": len(stats),
        "candidates_raw": len(raw),
        "candidates_surviving": len(survivors),
        "values_scanned": exported.values_scanned,
        "values_written": exported.values_written,
        "spool_mb": spool_mb,
        "items_read": merge.stats.items_read,
        "bytes_read": merge.stats.bytes_read,
        "comparisons": merge.stats.comparisons,
        "merge_satisfied": pairs(merge.satisfied),
        "brute_force_satisfied": pairs(brute.satisfied),
    }


def reference_pairs(db) -> list[list[str]]:
    from repro import DiscoveryConfig, discover_inds

    return pairs(discover_inds(db, DiscoveryConfig(strategy="reference")).satisfied)


def pairs(satisfied) -> list[list[str]]:
    return sorted([ind.dependent.qualified, ind.referenced.qualified] for ind in satisfied)


def phase_seconds(trace: dict | None) -> dict[str, float]:
    """Durations of the program trace's top-level phase spans, by name."""
    if trace is None:
        return {}
    roots = {s["id"] for s in trace["spans"] if s["parent"] is None}
    out = dict.fromkeys(PHASES, 0.0)
    for s in trace["spans"]:
        if s["parent"] in roots and s["name"] in out:
            out[s["name"]] += s["duration"]
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each of its worker processes."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # reaped ones
    for child in multiprocessing.active_children():
        kb += _high_water_kb(child.pid)
    return kb / 1024


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def disk_mb(root: Path) -> float:
    """Bytes under ``root`` in MB; hardlinked inodes count once."""
    seen: dict[tuple[int, int], int] = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            seen[(st.st_dev, st.st_ino)] = st.st_size
    return sum(seen.values()) / 1e6


if __name__ == "__main__":
    main()
