"""Tests for FeedSim."""

import pytest

from repro.loadgen.slo import SLO
from repro.workloads.base import RunConfig
from repro.workloads.feedsim import FEEDSIM_SLO, FeedSim
from repro.workloads.scenarios import apply_fault_scenario


@pytest.fixture(scope="module")
def result():
    return FeedSim().run(
        RunConfig(sku_name="SKU2", warmup_seconds=0.5, measure_seconds=1.5)
    )


class TestFeedSim:
    def test_slo_definition_matches_paper(self):
        assert FEEDSIM_SLO == SLO(percentile=95.0, latency_seconds=0.5)

    def test_operating_point_meets_slo(self, result):
        assert result.extra["slo_met"] == 1.0
        assert result.extra["slo_p95_seconds"] <= 0.5

    def test_slo_binds_before_saturation(self, result):
        """Figure 9: ranking runs at 50-75% CPU, not 100%."""
        assert 0.40 < result.cpu_util < 0.90

    def test_throughput_order_of_magnitude(self, result):
        """Table 1: per-server RPS N(100) for ranking."""
        assert 20 < result.throughput_rps < 1000

    def test_search_used_multiple_probes(self, result):
        assert result.extra["slo_probes"] >= 3

    def test_faster_sku_higher_slo_throughput(self):
        quick = lambda sku: RunConfig(
            sku_name=sku, warmup_seconds=0.3, measure_seconds=1.0
        )
        small = FeedSim().run(quick("SKU1"))
        large = FeedSim().run(quick("SKU4"))
        assert large.throughput_rps > 2.5 * small.throughput_rps


class TestProbe:
    def test_error_rate_counts_every_finished_request(self):
        """Under blackout most of a probe's requests fail; its error
        rate is errors over successes plus errors, so it stays in
        [0, 1]."""
        config = apply_fault_scenario(
            RunConfig(
                sku_name="SKU2", seed=11, warmup_seconds=0.2, measure_seconds=0.5
            ),
            "blackout",
        )
        probe = FeedSim()._probe(config, 150.0)
        count = probe.run.latency["count"]
        errors = probe.run.latency["errors"]
        assert errors > count > 0
        assert probe.error_rate == errors / (count + errors)
        assert 0.0 <= probe.error_rate <= 1.0
