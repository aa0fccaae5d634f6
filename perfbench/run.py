"""Whole-process, per-layer benchmark of IND discovery.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload biosql-deep --seed 7 --seconds 20 --trace 0

Every measurement is a fresh interpreter (``child.py``) with a fixed
``PYTHONHASHSEED`` and private home, temp and cache roots; it receives only
the CSV directory.  Inputs and their reference answers are generated once
per (workload, seed) and cached under ``.perfbench_work/`` in the checkout.
Progress goes to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: One-shot processes per run, at least; more while the window allows.
MIN_REPS = 3
#: Set-ups per run; setup_s is their median.  One-shot runs add import-only
#: processes, watch runs add sessions that stop after the cold round.
SETUPS = 7
#: Watch processes per run that go on to run delta rounds.
WATCH_SESSIONS = 3
#: Delta rounds every watch process runs, whatever the window: with three
#: processes, at least ten of the 42 rounds lie beyond round_s.p75.
WATCH_MIN_ROUNDS = 14
#: Delta rounds of the traced watch processes: fixed, so counts repeat.
TRACE_ROUNDS = 12
#: No single measured process may outlive this (the whole run has 180 s).
CHILD_TIMEOUT_S = 170


class Run:
    """Spawns the measured processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, **spec) -> dict:
        """Run ``child.py`` in ``mode`` in a private sandbox; its result."""
        box = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.run_dir))
        for sub in ("home", "tmp"):
            (box / sub).mkdir()
        spec.update(mode=mode, seed=self.seed, out=str(box / "result.json"))
        (box / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            HOME=str(box / "home"),
            XDG_CACHE_HOME=str(box / "home" / ".cache"),
            TMPDIR=str(box / "tmp"),
        )
        spawn_t = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(box / "spec.json"), repr(spawn_t)],
            env=env,
            cwd=box,
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
        )
        exit_t = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
        result = json.loads((box / "result.json").read_text(encoding="utf-8"))
        shutil.rmtree(box)
        result.update(spawn_t=spawn_t, exit_t=exit_t)
        return result

    def check(self, label: str, got: dict | list, expected: list) -> bool:
        """Count one answer against the oracle; print the first difference."""
        self.attempted += 1
        if isinstance(got, dict):
            if "error" in got:
                self.failed += 1
                print(f"error: {label} raised {got['error']}", file=sys.stderr)
                return False
            got = got["satisfied"]
        if got == expected:
            return True
        self.failed += 1
        missing = sorted(set(map(tuple, expected)) - set(map(tuple, got)))
        extra = sorted(set(map(tuple, got)) - set(map(tuple, expected)))
        first = f"missing {missing[0]}" if missing else f"extra {extra[0]}"
        print(
            f"error: {label} differs from the reference answer: {first} "
            f"({len(missing)} missing, {len(extra)} extra)",
            file=sys.stderr,
        )
        return False

    def check_rounds(self, label: str, rounds: list[dict], states: list) -> None:
        for doc in rounds:
            self.check(f"{label} round {doc['round']}", doc, states[doc["round"]])

    # -------------------------------------------------------------- inputs
    def prepare_input(self) -> Path:
        """The cached (workload, seed) input: ``csv/`` and ``oracle.json``."""
        dest = WORK / "inputs" / f"{self.workload}-seed{self.seed}"
        if (dest / "oracle.json").is_file():
            return dest
        dest.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=dest.parent))
        made = self.spawn(
            "prepare", workload=self.workload, csv_dir=str(staging / "csv")
        )
        _write_states(staging, made["states"])
        shutil.rmtree(dest, ignore_errors=True)
        os.replace(staging, dest)
        return dest

    def oracle_states(self, inp: Path, upto: int) -> list:
        """Reference answers of watch states 0..upto, extending the cache."""
        states = json.loads((inp / "oracle.json").read_text(encoding="utf-8"))["states"]
        if len(states) <= upto:
            copy = self.copy_csv(inp, "oracle")
            more = self.spawn("oracle", csv_dir=str(copy), have=len(states), upto=upto)
            states += more["states"]
            _write_states(inp, states)
        return states

    def copy_csv(self, inp: Path, name: str) -> Path:
        return Path(shutil.copytree(inp / "csv", self.run_dir / f"csv-{name}"))

    # ------------------------------------------------------------ one-shot
    def oneshot(self, inp: Path, seconds: float, trace: bool) -> dict:
        states = [json.loads((inp / "oracle.json").read_text(encoding="utf-8"))["states"][0]]
        csv_dir = str(inp / "csv")
        if trace:
            plain = self.spawn("oneshot", csv_dir=csv_dir, traced=False)
            traced = self.spawn("oneshot", csv_dir=csv_dir, traced=True)
            self.check_rounds("untraced", plain["rounds"], states)
            self.check_rounds("traced", traced["rounds"], states)
            return self.layer_metrics(inp, plain, traced, states[0])
        reps: list[dict] = []
        setups: list[dict] = []
        start = time.monotonic()
        while True:
            # Set-up samples interleave with the runs, so they sample the
            # whole window rather than a few seconds at its end.
            setups.append(self.spawn("setup"))
            reps.append(self.spawn("oneshot", csv_dir=csv_dir, traced=False))
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        setups += reps
        setups += [self.spawn("setup") for _ in range(SETUPS - len(setups))]
        rounds = [rep["rounds"][0] for rep in reps]
        self.check_rounds("one-shot", rounds, states)
        times = [doc["seconds"] for doc in rounds]
        return {
            "setup_s": statistics.median(r["setup_done"] - r["spawn_t"] for r in setups),
            "discover_s": statistics.median(times),
            "round_s": times,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }

    # --------------------------------------------------------------- watch
    def watch_session(self, inp: Path, name: str, traced: bool, deadline, min_rounds: int) -> dict:
        return self.spawn(
            "watch",
            csv_dir=str(self.copy_csv(inp, name)),
            pristine_dir=str(inp / "csv"),
            cache_dir=str(self.run_dir / f"cache-{name}"),
            traced=traced,
            deadline=deadline,
            min_rounds=min_rounds,
        )

    def watch(self, inp: Path, seconds: float, trace: bool) -> dict:
        if trace:
            plain = self.watch_session(inp, "plain", False, None, TRACE_ROUNDS)
            traced = self.watch_session(inp, "traced", True, None, TRACE_ROUNDS)
            states = self.oracle_states(inp, TRACE_ROUNDS)
            self.check_rounds("untraced", plain["rounds"], states)
            self.check_rounds("traced", traced["rounds"], states)
            return self.layer_metrics(inp, plain, traced, states[0])
        sessions: list[dict] = []
        setups: list[dict] = []
        start = time.monotonic()
        for i in range(WATCH_SESSIONS):
            # Cold-round-only sessions interleave with the looping ones.
            setups.append(self.watch_session(inp, f"setup-{i}", False, None, 0))
            deadline = start + seconds * (i + 1) / WATCH_SESSIONS
            sessions.append(
                self.watch_session(inp, str(i), False, deadline, WATCH_MIN_ROUNDS)
            )
        setups += sessions
        setups += [
            self.watch_session(inp, f"setup-{i}", False, None, 0)
            for i in range(len(setups), SETUPS)
        ]
        states = self.oracle_states(inp, max(len(s["rounds"]) for s in sessions) - 1)
        for i, session in enumerate(setups):
            self.check_rounds(f"session {i}", session["rounds"], states)
        return {
            "setup_s": statistics.median(s["setup_done"] - s["spawn_t"] for s in setups),
            "discover_s": statistics.median(s["rounds"][0]["seconds"] for s in setups),
            "round_s": [d["seconds"] for s in sessions for d in s["rounds"][1:]],
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        }

    # ----------------------------------------------------------- per-layer
    def layer_metrics(self, inp: Path, plain: dict, traced: dict, expected: list) -> dict:
        """Per-layer metrics of a traced process, next to an untraced twin."""
        layers = traced["layers"]
        self.check("validate.merge", layers["merge_satisfied"], expected)
        self.check("validate.brute_force", layers["brute_force_satisfied"], expected)
        spans = traced["spans"]
        _write_trace(self.workload, self.seed, traced)
        self_s = _self_times(spans)
        wall = traced["exit_t"] - traced["spawn_t"]
        last_end = max(s["end"] for s in spans)
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        # The one-shot run has one round; a watch run counts its delta rounds.
        counted = traced["rounds"][1:] or traced["rounds"]
        plain_counted = plain["rounds"][1:] or plain["rounds"]
        loads = [s for s in spans if s["name"] == "round.load"][-len(counted):]
        revalidated = sum(_revalidated(d) for d in counted)
        reused = sum((d["delta"] or {}).get("decisions_reused", 0) for d in counted)
        counters = traced.get("counters", {})
        pool = traced.get("pool", {})
        scanned, written = layers["values_scanned"], layers["values_written"]
        raw, surviving = layers["candidates_raw"], layers["candidates_surviving"]
        return {
            "process.import_s": self_s["process.import"],
            "process.exit_s": traced["exit_t"] - last_end,
            "process.coverage": top / wall,
            "db.load_s": self_s["db.load"],
            "db.rows": layers["rows"],
            "db.csv_mb": sum(f.stat().st_size for f in (inp / "csv").iterdir()) / 1e6,
            "db.attributes": layers["attributes"],
            "db.profile_s": self_s["db.profile"],
            "candidates.s": self_s["candidates"],
            "candidates.raw": raw,
            "candidates.surviving": surviving,
            "candidates.keep_ratio": surviving / raw,
            "storage.export_s": self_s["storage.export"],
            "storage.values_scanned": scanned,
            "storage.values_written": written,
            "storage.written_per_scanned": written / scanned,
            "storage.spool_mb": layers["spool_mb"],
            "validate.merge_s": self_s["validate.merge"],
            "validate.brute_force_s": self_s["validate.brute_force"],
            "validate.items_read": layers["items_read"],
            "validate.bytes_read": layers["bytes_read"],
            "validate.comparisons": layers["comparisons"],
            "validate.satisfied_ratio": len(layers["merge_satisfied"]) / surviving,
            "round.load_s": statistics.median(s["end"] - s["start"] for s in loads),
            "round.profile_s": statistics.median(d["phases"]["profile"] for d in counted),
            "round.export_s": statistics.median(d["phases"]["export"] for d in counted),
            "round.validate_s": statistics.median(d["phases"]["validate"] for d in counted),
            "delta.revalidated": revalidated,
            "delta.reuse_ratio": reused / (reused + revalidated),
            "cache.partial_hits": int(counters.get("spool_cache_partial_hits_total", 0)),
            "cache.files_reused": int(counters.get("spool_cache_files_reused_total", 0)),
            "cache.mb": traced.get("cache_mb", 0.0),
            "pool.tasks_completed": pool.get("tasks_completed", 0),
            "pool.tasks_requeued": pool.get("tasks_requeued", 0),
            "pool.workers_replaced": pool.get("workers_replaced", 0),
            "pool.spool_handle_reuses": pool.get("spool_handle_reuses", 0),
            "trace.overhead_ratio": statistics.median(d["seconds"] for d in counted)
            / statistics.median(d["seconds"] for d in plain_counted),
            "error_rate": self.failed / self.attempted,
        }


def _revalidated(doc: dict) -> int:
    delta = doc["delta"] or {}
    if delta.get("mode") == "delta":
        return delta["candidates_revalidated"]
    return doc["candidates"]


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]["name"]
            out[parent] = out.get(parent, 0.0) - (s["end"] - s["start"])
    return out


def _write_states(inp: Path, states: list) -> None:
    tmp = inp / "oracle.json.tmp"
    tmp.write_text(json.dumps({"states": states}), encoding="utf-8")
    os.replace(tmp, inp / "oracle.json")


def _write_trace(workload: str, seed: int, traced: dict) -> None:
    out = WORK / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {key: traced[key] for key in ("spawn_t", "exit_t", "spans")}
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _end_to_end(measured: dict) -> dict:
    times = measured["round_s"]
    return {
        "setup_s": measured["setup_s"],
        "discover_s": measured["discover_s"],
        "round_s.p50": statistics.median(times),
        "round_s.p75": statistics.quantiles(times, n=4, method="inclusive")[2],
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Compile once up front so no measured import pays for bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True,
        stdout=sys.stderr,
    )
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, Path(tempfile.mkdtemp(prefix="run-", dir=WORK)))
    try:
        inp = run.prepare_input()
        measure = run.watch if WORKLOADS[args.workload].path == "watch" else run.oneshot
        measured = measure(inp, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    values = measured if args.trace else _end_to_end(measured)
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


if __name__ == "__main__":
    sys.exit(main())
