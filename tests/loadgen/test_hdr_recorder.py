"""BucketedHistogram: log-linear latency buckets with O(buckets) reads."""

import math
import random

import pytest

from repro.loadgen.recorder import BucketedHistogram, LatencyRecorder


def reference_index(units, precision_bits):
    """The log-linear bucket of a microsecond count, written out here so
    the tests check ``record``'s mapping against an independent copy:
    values under ``2**bits`` map 1:1, and magnitude ``k`` above that
    lands at ``k * 2**bits + (units >> k)``."""
    sub = 1 << precision_bits
    if units < sub:
        return units
    shift = units.bit_length() - precision_bits - 1
    return shift * sub + (units >> shift)


def reference_high(index, precision_bits):
    """The highest microsecond count bucket ``index`` covers: an exact
    bucket covers its own value, and bucket ``k * 2**bits + j`` of
    magnitude ``k`` covers ``[j << k, (j + 1) << k)``."""
    sub = 1 << precision_bits
    if index < sub:
        return index
    shift = index // sub - 1
    return ((index - shift * sub + 1) << shift) - 1


def recorded_index(h, units):
    """The bucket ``record`` puts ``units`` microseconds in."""
    h.clear()
    h.record(units / 1e6)
    assert h.percentile(100) * 1e6 == pytest.approx(units)
    (index,) = h._counts
    return index


class TestBucketMapping:
    def test_small_values_are_exact(self):
        """Values under 2**precision_bits microseconds get one bucket
        each, so percentiles in that range are quantized only to 1 µs."""
        h = BucketedHistogram(precision_bits=7)
        for us in (0, 1, 64, 127):
            h.record(us / 1e6)
        assert h.bucket_count == 4
        assert h.percentile(100) == pytest.approx(127e-6)

    def test_index_is_monotone_and_contiguous(self):
        h = BucketedHistogram(precision_bits=4)
        indices = [recorded_index(h, u) for u in range(0, 5000)]
        assert indices == [reference_index(u, 4) for u in range(0, 5000)]
        assert indices == sorted(indices)
        # No gaps: every index between first and last is hit.
        assert set(indices) == set(range(indices[-1] + 1))

    def test_bucket_bounds_cover_their_values(self):
        h = BucketedHistogram(precision_bits=4)
        for units in (3, 17, 100, 1023, 4096, 123_456):
            index = recorded_index(h, units)
            assert index == reference_index(units, 4)
            high = reference_high(index, 4)
            assert high >= units
            # The next bucket starts right above this one's top value.
            assert reference_index(high + 1, 4) == index + 1
            mid = h._bucket_mid_seconds(index) * 1e6
            assert mid <= high

    def test_precision_bits_validated(self):
        with pytest.raises(ValueError):
            BucketedHistogram(precision_bits=0)
        with pytest.raises(ValueError):
            BucketedHistogram(precision_bits=15)


class TestHistogramQueries:
    def test_relative_error_bound_vs_exact(self):
        """The HDR guarantee: percentile error stays within the
        bucket's relative width (2**-(bits+1), ~0.4% at 7 bits) plus
        the 1 µs quantization floor."""
        rng = random.Random(7)
        exact = LatencyRecorder()  # sort-based reference
        h = BucketedHistogram(precision_bits=7)
        samples = [rng.lognormvariate(-6.0, 1.2) for _ in range(5000)]
        for s in samples:
            exact.record(s)
            h.record(s)
        for p in (50.0, 90.0, 99.0, 99.9):
            reference = exact.percentile(p)
            got = h.percentile(p)
            assert got == pytest.approx(reference, rel=0.01, abs=2e-6)

    def test_p100_is_exact_max(self):
        h = BucketedHistogram()
        for s in (0.001, 0.5, 0.123456):
            h.record(s)
        assert h.percentile(100) == pytest.approx(0.5)

    def test_empty_raises(self):
        h = BucketedHistogram()
        for p in (0, 50, 100):
            with pytest.raises(ValueError):
                h.percentile(p)
        with pytest.raises(ValueError):
            h.percentile(101)

    @pytest.mark.parametrize(
        "latency", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"]
    )
    def test_unreportable_latency_rejected(self, latency):
        # Refused before any state changes: a negative value would land
        # in a negative bucket and drag every percentile below zero.
        h = BucketedHistogram()
        h.record(0.002)
        for count in (1, 3):
            with pytest.raises(ValueError, match="finite and non-negative"):
                h.record(latency, count)
        assert h.total == 1 and h.bucket_count == 1
        assert h.percentile(100) == 0.002
        assert h.percentile(0) == pytest.approx(0.002, rel=0.01)

    def test_clear(self):
        h = BucketedHistogram()
        h.record(0.5)
        h.clear()
        assert h.total == 0
        assert h.bucket_count == 0


class TestWindowedUse:
    """Edge cases the windowed SLO tracker leans on: one histogram is
    cleared per window while a second accumulates, so clear/re-record
    cycles and tiny populations must behave exactly."""

    def test_clear_then_record_matches_fresh_histogram(self):
        reused = BucketedHistogram(precision_bits=7)
        for s in (0.001, 0.250, 0.987):
            reused.record(s)
        reused.clear()
        fresh = BucketedHistogram(precision_bits=7)
        for s in (0.010, 0.020, 0.030):
            reused.record(s)
            fresh.record(s)
        for p in (50.0, 95.0, 99.0, 100.0):
            assert reused.percentile(p) == fresh.percentile(p)
        assert reused.total == fresh.total == 3
        assert reused._counts == fresh._counts

    def test_empty_after_clear_raises_like_never_used(self):
        h = BucketedHistogram()
        h.record(0.5)
        h.clear()
        for p in (95.0, 100.0):
            with pytest.raises(ValueError):
                h.percentile(p)
        assert h.total == 0 and h.bucket_count == 0

    def test_single_sample_all_percentiles_equal(self):
        h = BucketedHistogram(precision_bits=7)
        h.record(0.042)
        values = {h.percentile(p) for p in (0.0001, 50.0, 95.0, 99.0, 99.9)}
        assert len(values) == 1
        # p100 is the exact max, which may differ from the bucket mid.
        assert h.percentile(100.0) == pytest.approx(0.042)

    def test_window_reset_vs_cumulative_snapshot_parity(self):
        """Recording the same stream into a per-window histogram
        (cleared every W samples) and a cumulative one: each window's
        count sums to the cumulative count, and the cumulative
        percentile equals a fresh histogram over all samples."""
        rng = random.Random(13)
        samples = [rng.lognormvariate(-5.0, 1.0) for _ in range(300)]
        window = BucketedHistogram(precision_bits=7)
        cumulative = BucketedHistogram(precision_bits=7)
        window_counts = []
        for i, s in enumerate(samples, 1):
            window.record(s)
            cumulative.record(s)
            if i % 50 == 0:
                window_counts.append(window.total)
                window.clear()
        assert sum(window_counts) == cumulative.total == 300
        reference = BucketedHistogram(precision_bits=7)
        for s in samples:
            reference.record(s)
        for p in (50.0, 95.0, 99.0):
            assert cumulative.percentile(p) == reference.percentile(p)

    def test_error_only_window_recorder_summary(self):
        """A recorder that saw only errors (the error-only-window case)
        keeps a sane summary instead of raising."""
        r = LatencyRecorder()
        r.record_error()
        r.record_error()
        summary = r.summary()
        assert summary["count"] == 0
        assert r.errors == 2
        assert r.fraction_below(1.0) == 0.0


def _hdr_answers(hist):
    """A BucketedHistogram's counts and everything it answers with
    (``percentile(100)`` is the exact max)."""
    return (
        sorted(hist._counts.items()),
        hist.total,
        [hist.percentile(p) for p in (0.0, 50.0, 90.0, 99.0, 99.9, 100.0)],
    )


class TestCountedRecord:
    """``record(x, count=n)`` is ``n`` calls of ``record(x)``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_histogram_counted_equals_repeated(self, seed):
        rng = random.Random(seed)
        counted, repeated = BucketedHistogram(), BucketedHistogram()
        for _ in range(rng.randint(1, 40)):
            value = rng.choice((rng.lognormvariate(-7.0, 1.0), 0.0, 5e-5))
            n = rng.randint(1, 9)
            counted.record(value, count=n)
            for _ in range(n):
                repeated.record(value)
        assert _hdr_answers(counted) == _hdr_answers(repeated)

    def test_recorder_counted_equals_repeated(self):
        rng = random.Random(3)
        counted = LatencyRecorder()
        repeated = LatencyRecorder()
        for _ in range(50):
            value = rng.expovariate(1.0 / 0.002)
            n = rng.randint(1, 5)
            counted.record(value, n)
            for _ in range(n):
                repeated.record(value)
        # summary() holds count, mean, max and the percentiles.
        assert counted.summary() == repeated.summary()
        assert counted.mergeable_state() == repeated.mergeable_state()

    def test_count_validated(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError, match="count"):
            recorder.record(0.001, count=0)
        assert len(recorder) == 0

    def test_histogram_validates_count(self):
        """The histogram checks ``count`` itself: the LLM engine records
        inter-token gaps straight into one, with no recorder between."""
        h = BucketedHistogram()
        for count in (0, -2):
            with pytest.raises(ValueError, match="count"):
                h.record(0.001, count)
        assert h.total == 0 and h.bucket_count == 0
