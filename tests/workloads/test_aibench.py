"""Tests for the AIBench extension workload."""

import numpy as np
import pytest

from repro.workloads.aibench import (
    AIBENCH_CHARACTERISTICS,
    AIBENCH_SLO,
    AiBench,
    DlrmConfig,
    MiniDlrm,
    make_inference_batch,
)
from repro.workloads.base import RunConfig
from repro.workloads.registry import extension_benchmarks, get_workload
from repro.workloads.runner import BenchmarkHarness


class TestMiniDlrm:
    def test_probabilities_in_range(self):
        model = MiniDlrm()
        dense, sparse = make_inference_batch(50)
        probabilities = model.infer(dense, sparse)
        assert probabilities.shape == (50,)
        assert np.all((probabilities > 0) & (probabilities < 1))

    def test_deterministic(self):
        dense, sparse = make_inference_batch(10)
        a = MiniDlrm(seed=11).infer(dense, sparse)
        b = MiniDlrm(seed=11).infer(dense, sparse)
        assert np.array_equal(a, b)

    def test_different_inputs_different_outputs(self):
        model = MiniDlrm()
        d1, s1 = make_inference_batch(10, seed=1)
        d2, s2 = make_inference_batch(10, seed=2)
        assert not np.array_equal(model.infer(d1, s1), model.infer(d2, s2))

    def test_sparse_features_matter(self):
        """Embeddings contribute: shuffling sparse ids changes scores."""
        model = MiniDlrm()
        dense, sparse = make_inference_batch(10)
        shuffled = (sparse + 7) % model.config.rows_per_table
        assert not np.array_equal(
            model.infer(dense, sparse), model.infer(dense, shuffled)
        )

    def test_input_validation(self):
        model = MiniDlrm()
        dense, sparse = make_inference_batch(4)
        with pytest.raises(ValueError):
            model.infer(dense[:, :5], sparse)
        with pytest.raises(ValueError):
            model.infer(dense, sparse[:, :3])
        with pytest.raises(ValueError):
            model.infer(dense, sparse + 10_000)

    def test_custom_config(self):
        config = DlrmConfig(num_tables=3, rows_per_table=50, embedding_dim=4)
        model = MiniDlrm(config=config)
        dense, sparse = make_inference_batch(5, config=config)
        assert model.infer(dense, sparse).shape == (5,)


class TestAiBenchWorkload:
    @pytest.fixture(scope="class")
    def result(self):
        return AiBench().run(
            RunConfig(sku_name="SKU2", warmup_seconds=0.3, measure_seconds=1.0)
        )

    def test_slo_met_at_operating_point(self, result):
        assert result.extra["slo_p99_seconds"] <= AIBENCH_SLO.latency_seconds

    def test_memory_bandwidth_bound(self, result):
        """The DLRM signature: embedding gathers saturate DRAM."""
        assert result.steady.memory_bandwidth_fraction > 0.7

    def test_low_ipc_high_vector(self, result):
        assert result.steady.ipc_per_physical_core < 1.0
        assert result.steady.effective_freq_ghz < 2.05  # vector throttle

    def test_validation_layer_ran(self, result):
        assert 0.0 < result.extra["validation_mean_ctr"] < 1.0

    def test_scales_with_cores_until_bandwidth(self):
        quick = lambda sku: RunConfig(
            sku_name=sku, warmup_seconds=0.3, measure_seconds=0.8
        )
        sku1 = AiBench().run(quick("SKU1"))
        sku4 = AiBench().run(quick("SKU4"))
        assert sku4.throughput_rps > 2.0 * sku1.throughput_rps

    def test_registered_as_extension(self):
        assert "aibench" in extension_benchmarks()
        workload = get_workload("aibench")
        assert workload.category == "ai-inference"

    def test_not_in_default_suite(self):
        from repro.workloads.registry import dcperf_benchmarks

        assert "aibench" not in dcperf_benchmarks()


#: The extras ``AiBench.run`` adds to the operating point's run.
RUN_EXTRAS = (
    "slo_max_rps", "slo_p99_seconds", "validation_mean_ctr", "validation_batch"
)


def reference_run(config, rate):
    """A fresh simulation at the searched rate: what ``run`` reported
    before it reused the search's probe."""
    harness = BenchmarkHarness(config, AIBENCH_CHARACTERISTICS)
    handler = AiBench()._build_handler(harness)
    return harness.run_open_loop(handler, offered_rps=rate)


class TestOperatingPointRun:
    @pytest.mark.parametrize("sku", ["SKU1", "SKU2"])
    def test_run_reports_the_probe_at_the_operating_rate(self, sku, monkeypatch):
        config = RunConfig(sku_name=sku, warmup_seconds=0.2, measure_seconds=0.6)
        counts = {"probes": 0, "simulations": 0}
        probe = AiBench._probe
        run_open_loop = BenchmarkHarness.run_open_loop

        def counting_probe(self, *args, **kwargs):
            counts["probes"] += 1
            return probe(self, *args, **kwargs)

        def counting_run_open_loop(self, *args, **kwargs):
            counts["simulations"] += 1
            return run_open_loop(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(AiBench, "_probe", counting_probe)
            patch.setattr(
                BenchmarkHarness, "run_open_loop", counting_run_open_loop
            )
            result = AiBench().run(config)
        assert counts["probes"] > 1
        assert counts["simulations"] == counts["probes"]

        reported = result.as_dict()
        for key in RUN_EXTRAS:
            del reported["extra"][key]
        fresh = reference_run(config, result.extra["slo_max_rps"])
        assert reported == fresh.as_dict()
