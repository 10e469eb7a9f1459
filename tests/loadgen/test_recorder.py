"""Tests for the latency recorder."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.recorder import LatencyRecorder


class TestPercentiles:
    def test_single_sample(self):
        r = LatencyRecorder()
        r.record(0.5)
        assert r.percentile(50) == 0.5
        assert r.percentile(99) == 0.5

    def test_interpolation(self):
        r = LatencyRecorder()
        for v in (1.0, 2.0, 3.0, 4.0):
            r.record(v)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 4.0
        assert r.percentile(50) == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(50)

    def test_out_of_range_percentile(self):
        r = LatencyRecorder()
        r.record(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    @pytest.mark.parametrize("backend", ["exact", "hdr"])
    @pytest.mark.parametrize(
        "latency", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"]
    )
    def test_unreportable_latency_rejected(self, latency, backend):
        # A nan or inf sample would turn exact percentiles into nan, and
        # the hdr backend cannot bucket either: refused before any state
        # changes, so the recorder still answers from its good samples.
        r = LatencyRecorder(backend)
        r.record(0.1)
        r.record(0.2)
        for count in (1, 3):
            with pytest.raises(ValueError, match="finite and non-negative"):
                r.record(latency, count)
        assert len(r) == 2
        assert r.percentile(100) == 0.2
        assert not math.isnan(r.percentile(50))

    @given(samples=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_percentiles_bracket_data(self, samples):
        r = LatencyRecorder()
        for s in samples:
            r.record(s)
        assert r.percentile(0) == pytest.approx(min(samples))
        assert r.percentile(100) == pytest.approx(max(samples))
        eps = 1e-9 * max(1.0, abs(max(samples)))
        assert min(samples) - eps <= r.percentile(95) <= max(samples) + eps

    @given(samples=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=100))
    @settings(max_examples=50)
    def test_percentiles_monotone(self, samples):
        r = LatencyRecorder()
        for s in samples:
            r.record(s)
        values = [r.percentile(p) for p in (10, 50, 90, 99)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9  # tolerate float interpolation noise


class TestSummary:
    def test_summary_fields(self):
        r = LatencyRecorder()
        for v in (0.1, 0.2, 0.3):
            r.record(v)
        r.record_error()
        s = r.summary()
        assert s["count"] == 3
        assert s["errors"] == 1
        assert s["mean"] == pytest.approx(0.2)
        assert s["max"] == 0.3

    def test_empty_summary(self):
        s = LatencyRecorder().summary()
        assert s == {"count": 0, "errors": 0}

    def test_error_rate(self):
        r = LatencyRecorder()
        r.record(1.0)
        r.record_error()
        assert r.error_rate() == pytest.approx(0.5)
        assert LatencyRecorder().error_rate() == 0.0

    def test_reset(self):
        r = LatencyRecorder()
        r.record(1.0)
        r.record_error()
        r.reset()
        assert len(r) == 0
        assert r.errors == 0


class TestSnapshot:
    def test_error_only_run_never_raises(self):
        r = LatencyRecorder()
        r.record_error()
        r.record_error()
        snap = r.snapshot()
        assert snap["count"] == 0
        assert snap["errors"] == 2
        assert snap["mean"] == 0.0
        assert snap["p95"] == 0.0
        assert snap["max"] == 0.0

    def test_empty_recorder_snapshot(self):
        snap = LatencyRecorder().snapshot()
        assert snap["count"] == 0
        assert snap["errors"] == 0
        assert set(snap) == {
            "count", "errors", "mean", "p50", "p90", "p95", "p99", "max",
        }

    def test_matches_summary_with_samples(self):
        r = LatencyRecorder()
        for v in (0.1, 0.2, 0.3):
            r.record(v)
        r.record_error()
        assert r.snapshot() == r.summary()
