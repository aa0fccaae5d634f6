"""Worker death under pooled validation, end to end through ``discover_inds``.

``tests/parallel/test_pool.py`` kills workers underneath bare pool jobs;
this file kills them underneath whole discovery runs — after the
in-process export and sampling pretest, on a warm spool-cache hit, and
inside a range-split merge partition.  A one-shot fault must requeue and
converge to the unfaulted result document byte for byte; a crash-looping
task must fail the run loudly and leave the fleet usable for the next run.
"""

from __future__ import annotations

import pytest

from seeded_dbs import build_db
from test_validator_agreement import _pipeline_view

from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.errors import DiscoveryError
from repro.parallel.pool import WorkerPool


def _config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="brute-force",
        spool_format="binary",
        spool_block_size=4,
        pretests=PretestConfig(cardinality=True, max_value=False),
        validation_workers=2,
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


def _arm_one_shot_fault(monkeypatch, marker_dir) -> None:
    """Kill the first worker that picks up a task touching ``t0.c0``."""
    monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
    monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(marker_dir))


class TestOneShotWorkerDeath:
    @pytest.mark.parametrize("strategy", ("brute-force", "merge-single-pass"))
    def test_death_after_sampling_pretest_converges_byte_exact(
        self, strategy, tmp_path, monkeypatch
    ):
        db = build_db()
        expected = _pipeline_view(
            discover_inds(
                db,
                _config(
                    strategy=strategy, sampling_size=2, validation_workers=1
                ),
            ).to_dict()
        )
        _arm_one_shot_fault(monkeypatch, tmp_path)
        with WorkerPool(2) as pool:
            result = discover_inds(
                db, _config(strategy=strategy, sampling_size=2), pool=pool
            )
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        assert (tmp_path / "pool-fault-fired").exists(), "fault never fired"
        assert _pipeline_view(result.to_dict()) == expected

    def test_death_on_warm_cache_hit_converges_byte_exact(
        self, tmp_path, monkeypatch
    ):
        """The hit skips export; the requeue must not disturb the cache."""
        db = build_db()
        warm = _config(reuse_spool=True, cache_dir=str(tmp_path / "cache"))
        assert discover_inds(db, warm).spool_cache_hit is False
        expected = _pipeline_view(discover_inds(db, warm).to_dict())
        _arm_one_shot_fault(monkeypatch, tmp_path)
        with WorkerPool(2) as pool:
            result = discover_inds(db, warm, pool=pool)
            assert pool.stats.tasks_requeued >= 1
        assert result.spool_cache_hit is True
        assert _pipeline_view(result.to_dict()) == expected

    def test_death_inside_range_split_partition_converges(
        self, tmp_path, monkeypatch
    ):
        db = build_db()
        split = _config(strategy="merge-single-pass", range_split=2)
        expected = _pipeline_view(discover_inds(db, split).to_dict())
        _arm_one_shot_fault(monkeypatch, tmp_path)
        with WorkerPool(2) as pool:
            result = discover_inds(db, split, pool=pool)
            assert pool.stats.tasks_requeued >= 1
        assert _pipeline_view(result.to_dict()) == expected


class TestCrashLoopingTask:
    """No one-shot marker: every worker that picks the task dies.

    The requeue cap must fail the run with the established error —
    promptly, without wedging — and a clean run on the same fleet right
    after must reproduce the unfaulted answer.
    """

    def test_fails_loudly_and_the_pool_stays_usable(self, monkeypatch):
        db = build_db()
        clean = _pipeline_view(discover_inds(db, _config()).to_dict())
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="killed its worker"):
                discover_inds(db, _config(), pool=pool)
            monkeypatch.delenv("REPRO_POOL_FAULT_ATTR")
            result = discover_inds(db, _config(), pool=pool)
        assert _pipeline_view(result.to_dict()) == clean

    def test_session_survives_a_failed_run(self, monkeypatch):
        db = build_db()
        clean = _pipeline_view(discover_inds(db, _config()).to_dict())
        with DiscoverySession(_config()) as session:
            monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
            with pytest.raises(DiscoveryError, match="killed its worker"):
                session.discover(db)
            monkeypatch.delenv("REPRO_POOL_FAULT_ATTR")
            result = session.discover(db)
        assert _pipeline_view(result.to_dict()) == clean
