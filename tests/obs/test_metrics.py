"""Unit tests for the metrics registry: series keys, snapshots, merging."""

from __future__ import annotations

import json
import threading

from repro.obs import BUCKET_BOUNDS, MetricsRegistry, get_registry


class TestCountersAndGauges:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("pool_tasks_total", kind="merge-partition")
        reg.inc("pool_tasks_total", kind="merge-partition")
        reg.inc("pool_tasks_total", kind="brute-force")
        reg.inc("plain_total", 5)
        counters = reg.snapshot()["counters"]
        assert counters["pool_tasks_total{kind=merge-partition}"] == 2.0
        assert counters["pool_tasks_total{kind=brute-force}"] == 1.0
        assert counters["plain_total"] == 5.0

    def test_label_keys_are_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.inc("x_total", b=2, a=1)
        reg.inc("x_total", a=1, b=2)
        assert reg.snapshot()["counters"] == {"x_total{a=1,b=2}": 2.0}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool_workers", 4)
        reg.set_gauge("pool_workers", 2)
        assert reg.snapshot()["gauges"] == {"pool_workers": 2.0}

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("a_total")
        reg.set_gauge("g", 1)
        reg.observe("h_seconds", 0.1)
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestHistograms:
    def test_observe_tracks_count_sum_min_max(self):
        reg = MetricsRegistry()
        for value in (0.004, 0.2, 7.0):
            reg.observe("validate_seconds", value)
        hist = reg.snapshot()["histograms"]["validate_seconds"]
        assert hist["count"] == 3
        assert abs(hist["sum"] - 7.204) < 1e-9
        assert hist["min"] == 0.004
        assert hist["max"] == 7.0

    def test_buckets_are_cumulative_le(self):
        reg = MetricsRegistry()
        reg.observe("h_seconds", 0.004)   # le 0.005
        reg.observe("h_seconds", 0.2)     # le 0.25
        reg.observe("h_seconds", 1000.0)  # overflow
        buckets = reg.snapshot()["histograms"]["h_seconds"]["buckets"]
        assert buckets["0.001"] == 0
        assert buckets["0.005"] == 1
        assert buckets["0.25"] == 2
        assert buckets["60.0"] == 2
        assert buckets["+Inf"] == 3
        # Cumulative counts never decrease across the bound sequence.
        ordered = [buckets[f"{b}"] for b in BUCKET_BOUNDS] + [buckets["+Inf"]]
        assert ordered == sorted(ordered)

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("a_total", kind="x")
        reg.observe("h_seconds", 0.1)
        json.dumps(reg.snapshot())


class TestMerge:
    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("t_total", 2)
        b.inc("t_total", 3)
        a.observe("h_seconds", 0.004)
        b.observe("h_seconds", 0.2)
        b.set_gauge("g", 9)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["t_total"] == 5.0
        assert snap["gauges"]["g"] == 9.0
        hist = snap["histograms"]["h_seconds"]
        assert hist["count"] == 2
        assert hist["buckets"]["0.005"] == 1
        assert hist["buckets"]["+Inf"] == 2

    def test_merge_roundtrip_equals_direct_observation(self):
        direct, a, b = (MetricsRegistry() for _ in range(3))
        for value in (0.002, 0.07, 3.0):
            direct.observe("h_seconds", value)
            a.observe("h_seconds", value)
        b.merge(a.snapshot())
        assert b.snapshot() == direct.snapshot()


class TestGlobalRegistry:
    def test_get_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.inc("race_total")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["counters"]["race_total"] == 4000.0
