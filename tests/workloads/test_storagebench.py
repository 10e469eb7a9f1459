"""StorageBench: suite integration, iostat reporting, fault contrast."""

import pytest

from repro.core.benchmark import Benchmark
from repro.core.suite import FLEET_POWER_WEIGHTS
from repro.workloads.base import RunConfig
from repro.workloads.registry import dcperf_benchmarks, get_workload
from repro.workloads.scenarios import apply_fault_scenario
from repro.workloads.storagebench import BATCH, StorageBench


def _config(**overrides):
    base = dict(
        sku_name="SKU2", seed=11, warmup_seconds=0.2, measure_seconds=0.5
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def plain_report():
    return Benchmark.by_name("storagebench").run(_config())


@pytest.fixture(scope="module")
def degraded_report():
    config = apply_fault_scenario(_config(), "disk_degraded")
    return Benchmark.by_name("storagebench").run(config)


class TestSuiteIntegration:
    def test_registered(self):
        assert "storagebench" in dcperf_benchmarks()
        wl = get_workload("storagebench")
        assert isinstance(wl, StorageBench)
        assert wl.category == "storage"

    def test_scored_in_geomean(self):
        assert "storagebench" in FLEET_POWER_WEIGHTS
        assert sum(FLEET_POWER_WEIGHTS.values()) == pytest.approx(1.0)

    def test_batch_default_applied(self, plain_report):
        """The workload runs at its own batch factor; the WAL byte
        counters carry the production-scale multiplier."""
        extra = plain_report.result.extra
        # Per-put WAL bytes >= batch * (min value + framing overhead).
        assert extra["io_wal_bytes"] >= extra["lsm_puts"] * BATCH * 64


class TestReporting:
    def test_engine_activity_in_window(self, plain_report):
        extra = plain_report.result.extra
        assert extra["lsm_gets"] > 0
        assert extra["lsm_puts"] > 0
        assert extra["io_flushes"] >= 1
        assert extra["io_reads"] > 0
        assert 0.0 < extra["lsm_hit_rate"] <= 1.0
        assert extra["lsm_table_count"] > 0
        assert plain_report.metric_value > 0

    def test_iostat_hook_enabled_and_populated(self, plain_report):
        iostat = plain_report.hook_sections["iostat"]
        assert iostat["enabled"] is True
        assert iostat["device"] == _config().sku.storage
        assert iostat["reads"] > 0
        assert iostat["writes"] > 0
        assert iostat["wal_mb"] > 0
        assert iostat["flushes"] >= 1
        assert 0.0 < iostat["device_util_pct"] <= 100.0
        assert 0.0 <= iostat["block_cache_hit_rate"] <= 1.0

    def test_iostat_disabled_for_deviceless_workload(self):
        report = Benchmark.by_name("taobench").run(
            _config(measure_seconds=0.3, warmup_seconds=0.1)
        )
        assert report.hook_sections["iostat"] == {"enabled": False}


class TestDiskDegradedContrast:
    """The fault channel must be visible in foreground behavior: a
    slower device backs up L0, stalls writers, and inflates p99."""

    def test_degraded_device_stalls_writers(self, plain_report, degraded_report):
        plain = plain_report.result.extra
        degraded = degraded_report.result.extra
        assert degraded["io_stall_events"] > plain["io_stall_events"]
        assert degraded["io_stall_seconds"] > plain["io_stall_seconds"]
        assert degraded["io_stall_p99_s"] > 0.0

    def test_degraded_p99_inflates(self, plain_report, degraded_report):
        plain_p99 = plain_report.result.latency["p99"]
        degraded_p99 = degraded_report.result.latency["p99"]
        assert degraded_p99 > plain_p99 * 1.5

    def test_iostat_shows_the_contrast(self, plain_report, degraded_report):
        plain = plain_report.hook_sections["iostat"]
        degraded = degraded_report.hook_sections["iostat"]
        assert degraded["stall_seconds"] > plain["stall_seconds"]
        assert degraded["device_util_pct"] > plain["device_util_pct"]
