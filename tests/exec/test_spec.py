"""Tests for sweep grid specs and content fingerprints."""

import pytest

from repro.exec.spec import (
    RunPoint,
    code_fingerprint,
    model_fingerprint,
    run_fingerprint,
)


class TestRunPoint:
    def test_dict_round_trip(self):
        point = RunPoint(
            benchmark="taobench",
            sku="SKU4",
            kernel="6.4",
            seed=11,
            variant=":prod",
            measure_seconds=0.75,
        )
        assert RunPoint.from_dict(point.as_dict()) == point

    def test_workload_name_includes_variant(self):
        assert RunPoint(benchmark="taobench").workload_name == "taobench"
        assert (
            RunPoint(benchmark="taobench", variant=":prod").workload_name
            == "taobench:prod"
        )

    def test_run_config_carries_everything(self):
        point = RunPoint(
            benchmark="feedsim",
            sku="SKU3",
            kernel="6.4",
            seed=3,
            measure_seconds=2.5,
            warmup_seconds=0.25,
            load_scale=1.5,
            batch=2,
        )
        config = point.run_config()
        assert config.sku_name == "SKU3"
        assert config.kernel_version == "6.4"
        assert config.seed == 3
        assert config.measure_seconds == 2.5
        assert config.warmup_seconds == 0.25
        assert config.load_scale == 1.5
        assert config.batch == 2

    def test_hashable_and_frozen(self):
        point = RunPoint(benchmark="taobench")
        assert point in {point}
        with pytest.raises(Exception):
            point.sku = "SKU4"


class TestFingerprints:
    def test_deterministic(self):
        point = RunPoint(benchmark="taobench")
        assert run_fingerprint(point) == run_fingerprint(point)

    def test_sensitive_to_every_field(self):
        base = RunPoint(benchmark="taobench")
        variants = [
            RunPoint(benchmark="feedsim"),
            RunPoint(benchmark="taobench", sku="SKU4"),
            RunPoint(benchmark="taobench", kernel="6.4"),
            RunPoint(benchmark="taobench", seed=8),
            RunPoint(benchmark="taobench", variant=":prod"),
            RunPoint(benchmark="taobench", measure_seconds=2.0),
        ]
        fingerprints = {run_fingerprint(p) for p in [base] + variants}
        assert len(fingerprints) == len(variants) + 1

    def test_model_and_code_fingerprints_are_short_hex(self):
        for fp in (model_fingerprint(), code_fingerprint()):
            assert len(fp) == 16
            int(fp, 16)  # valid hex
