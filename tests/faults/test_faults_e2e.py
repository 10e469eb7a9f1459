"""End-to-end fault injection: determinism, degradation, reporting."""

import json
from functools import lru_cache

import pytest

from repro.core.benchmark import Benchmark
from repro.core.suite import DCPerfSuite
from repro.exec.spec import RunPoint
from repro.workloads.base import RunConfig
from repro.workloads.scenarios import apply_fault_scenario, fault_scenario_names
from tests.conftest import run_point

FAST = dict(measure_seconds=0.6, warmup_seconds=0.2, seed=11)


def run_taobench(scenario=""):
    config = RunConfig(sku_name="SKU2", **FAST)
    if scenario:
        config = apply_fault_scenario(config, scenario)
    return Benchmark.by_name("taobench").run(config)


def canonical(report):
    return json.dumps(report.as_dict(), sort_keys=True, default=str)


class TestDeterministicReplay:
    def test_same_seed_same_scenario_byte_identical(self):
        a = run_taobench("brownout")
        b = run_taobench("brownout")
        assert canonical(a) == canonical(b)

    def test_different_scenarios_differ(self):
        assert canonical(run_taobench("brownout")) != canonical(
            run_taobench("flaky_network")
        )


class TestDegradation:
    def test_brownout_degrades_p95(self):
        clean = run_taobench()
        faulted = run_taobench("brownout")
        assert (
            faulted.result.latency["p95"] > clean.result.latency["p95"] * 1.5
        )

    def test_blackout_produces_failures_and_retries(self):
        report = run_taobench("blackout")
        section = report.hook_sections["resilience"]
        assert section["enabled"] is True
        assert section["scenario"] == "blackout"
        assert section["error_rate"] > 0.0
        assert section["retries"] > 0
        assert section["fault_events_applied"] >= 1
        # Goodput excludes failed requests, so it must trail throughput.
        assert 0.0 < section["goodput_fraction"] < 1.0

    def test_flaky_network_hedges(self):
        section = run_taobench("flaky_network").hook_sections["resilience"]
        assert section["net_drops"] > 0
        assert section["hedges"] > 0
        assert section["retry_amplification"] > 1.0


class TestResilienceReporting:
    def test_fault_free_run_reports_disabled(self):
        report = run_taobench()
        assert report.hook_sections["resilience"] == {"enabled": False}

    def test_faulted_section_shape(self):
        section = run_taobench("noisy_neighbor").hook_sections["resilience"]
        for key in (
            "requests",
            "error_rate",
            "retry_amplification",
            "slo_compliance_pct",
            "goodput_rps",
            "slo_latency_ms",
        ):
            assert key in section
        assert section["requests"] > 0
        assert 0.0 <= section["slo_compliance_pct"] <= 100.0
        # The section must be JSON-serializable for report export.
        json.dumps(section, sort_keys=True)

    def test_slo_compliance_drops_under_brownout(self):
        faulted = run_taobench("brownout").hook_sections["resilience"]
        assert faulted["slo_compliance_pct"] < 100.0


#: Short window for the scenario x suite-entry matrix.
MATRIX = dict(sku="SKU2", measure_seconds=0.3, warmup_seconds=0.1)
#: Batch jobs with no request path: the fault injector never starts for
#: them, so every scenario leaves their reports untouched.
FAULT_FREE_BATCH_JOBS = ("sparkbench", "videotranscode")


@lru_cache(maxsize=None)
def _fault_free_report(name):
    return canonical(run_point(RunPoint(benchmark=name, **MATRIX)))


@pytest.mark.parametrize("scenario", fault_scenario_names())
@pytest.mark.parametrize("name", DCPerfSuite().benchmark_names)
def test_every_suite_entry_completes_under_every_scenario(name, scenario):
    """``dcperf suite --faults S`` runs every entry to completion (a
    crash-restart stalls the LLM engine loop instead of killing it)."""
    report = run_point(RunPoint(benchmark=name, faults=scenario, **MATRIX))
    assert report.metric_value > 0
    if name in FAULT_FREE_BATCH_JOBS:
        assert report.hook_sections["resilience"] == {"enabled": False}
        assert canonical(report) == _fault_free_report(name)
    else:
        assert report.hook_sections["resilience"]["scenario"] == scenario


def test_compaction_waits_out_a_crash_restart():
    """Under blackout on SKU2 with a 0.3 s window, a compaction comes
    due while the server is down: it waits for the restart instead of
    ending the run with ``ServerUnavailableError``."""
    point = RunPoint(
        benchmark="storagebench", sku="SKU2", measure_seconds=0.3,
        faults="blackout",
    )
    report = run_point(point)
    assert report.hook_sections["resilience"]["scenario"] == "blackout"
    assert report.metric_value > 0


def test_feedsim_survives_a_leaf_failing_after_its_deadline():
    """Under blackout on SKU4 with a 1.5 s window, the resilience
    deadline abandons a request waiting on its leaf join, and a later
    leaf burst fails on the downed server: the abandoned join drops
    that failure and the run completes."""
    point = RunPoint(
        benchmark="feedsim", sku="SKU4", measure_seconds=1.5,
        faults="blackout",
    )
    report = run_point(point)
    assert report.hook_sections["resilience"]["scenario"] == "blackout"
    assert report.metric_value > 0
