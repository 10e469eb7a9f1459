"""Property tests for mergeable measurement state.

The shard merge's central claim: ``merge(a, b)`` answers every query
exactly as a recorder that saw the union stream (a's samples followed
by b's) would.  These tests check that claim on randomized streams for
both backends, plus the codec round-trip of the mergeable state that
carries recorders between shard processes.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.exec.serialize import dict_from_bytes, dict_to_bytes
from repro.loadgen.recorder import BucketedHistogram, LatencyRecorder
from repro.loadgen.windows import WindowedSloTracker


def _record_stream(backend, stream, errors=0):
    recorder = LatencyRecorder(backend=backend)
    for value in stream:
        recorder.record(value)
    for _ in range(errors):
        recorder.record_error()
    return recorder


def _stream(rng, n):
    return [rng.expovariate(1.0 / 0.002) for _ in range(n)]


QUERIES = (0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0)


def _assert_equivalent(merged, union):
    assert len(merged) == len(union)
    assert merged.errors == union.errors
    if len(union) == 0:
        assert merged.summary() == union.summary()
        return
    for p in QUERIES:
        assert merged.percentile(p) == union.percentile(p)
    assert merged.mean() == union.mean()
    assert merged.max() == union.max()
    for threshold in (0.0, 0.001, 0.002, 0.01):
        assert merged.fraction_below(threshold) == union.fraction_below(threshold)


@pytest.mark.parametrize("backend", ["exact", "hdr"])
@pytest.mark.parametrize("seed", range(8))
def test_merge_equals_union_stream(backend, seed):
    rng = random.Random(seed)
    n_a, n_b = rng.randint(1, 400), rng.randint(1, 400)
    err_a, err_b = rng.randint(0, 5), rng.randint(0, 5)
    stream_a, stream_b = _stream(rng, n_a), _stream(rng, n_b)

    a = _record_stream(backend, stream_a, err_a)
    b = _record_stream(backend, stream_b, err_b)
    # Union order matters only for float-sum accumulation (HDR mean):
    # merge folds b's buckets after a's, matching a-then-b recording.
    union = _record_stream(backend, stream_a + stream_b, err_a + err_b)
    merged = a.merge(b)
    _assert_equivalent(merged, union)
    assert merged.summary() == union.summary()


@pytest.mark.parametrize("backend", ["exact", "hdr"])
def test_merge_empty_sides(backend):
    rng = random.Random(42)
    stream = _stream(rng, 50)

    merged = _record_stream(backend, stream).merge(_record_stream(backend, []))
    _assert_equivalent(merged, _record_stream(backend, stream))

    merged = _record_stream(backend, []).merge(_record_stream(backend, stream))
    _assert_equivalent(merged, _record_stream(backend, stream))

    both = _record_stream(backend, [], errors=2).merge(
        _record_stream(backend, [], errors=3)
    )
    assert len(both) == 0 and both.errors == 5
    assert both.summary() == {"count": 0, "errors": 5}


@pytest.mark.parametrize("backend", ["exact", "hdr"])
def test_merge_negative_zero(backend):
    # -0.0 passes the `latency < 0` check on both backends.
    merged = _record_stream(backend, [-0.0, 0.001]).merge(
        _record_stream(backend, [-0.0])
    )
    union = _record_stream(backend, [-0.0, 0.001, -0.0])
    _assert_equivalent(merged, union)


def test_merge_exact_keeps_samples_sorted_without_resort():
    a = _record_stream("exact", [0.003, 0.001, 0.002])
    b = _record_stream("exact", [0.004, 0.0005])
    merged = a.merge(b)
    assert merged._samples == sorted(merged._samples)
    assert merged._sorted


def test_merge_backend_mismatch_raises():
    with pytest.raises(ValueError, match="backends"):
        LatencyRecorder("exact").merge(LatencyRecorder("hdr"))
    with pytest.raises(ValueError, match="backends"):
        LatencyRecorder("hdr").merge(LatencyRecorder("exact"))


def test_histogram_precision_mismatch_raises():
    with pytest.raises(ValueError, match="precision"):
        BucketedHistogram(precision_bits=7).merge(
            BucketedHistogram(precision_bits=8)
        )


@pytest.mark.parametrize("seed", range(4))
def test_histogram_merge_bucketwise(seed):
    rng = random.Random(seed)
    a, b = BucketedHistogram(), BucketedHistogram()
    union = BucketedHistogram()
    for hist in (a, b):
        for _ in range(rng.randint(1, 300)):
            value = rng.expovariate(1.0 / 0.001)
            hist.record(value)
            union.record(value)
    a.merge(b)
    assert a._counts == union._counts
    assert a.total == union.total
    assert a.max() == union.max()


@pytest.mark.parametrize("backend", ["exact", "hdr"])
@pytest.mark.parametrize("seed", range(4))
def test_mergeable_state_round_trips_both_codecs(backend, seed):
    rng = random.Random(seed)
    recorder = _record_stream(backend, _stream(rng, 200), errors=3)
    state = recorder.mergeable_state()

    # The state must survive both transports losslessly: the JSON text
    # codec (run cache entries) and the pipe codec (warm pool results).
    via_json = json.loads(json.dumps(state))
    via_bytes = dict_from_bytes(dict_to_bytes({"s": state}))["s"]
    for transported in (state, via_json, via_bytes):
        rebuilt = LatencyRecorder.from_state(transported)
        _assert_equivalent(rebuilt, recorder)
        assert rebuilt.mergeable_state() == state


def test_mergeable_state_is_canonical():
    # Two recorders with identical content but different internal
    # insertion order must serialize identically (byte-determinism).
    a = _record_stream("hdr", [0.001, 0.005, 0.002])
    b = _record_stream("hdr", [0.002, 0.001, 0.005])
    assert a.mergeable_state() == b.mergeable_state()
    c = _record_stream("exact", [0.003, 0.001])
    d = _record_stream("exact", [0.001, 0.003])
    assert c.mergeable_state() == d.mergeable_state()


def test_merge_window_series_counts_and_percentiles():
    # Rows: [index, start, end, completions, errors, slo_met,
    #        p50, p95, p99, stall_seconds]
    shard_a = [
        [0.0, 0.0, 1.0, 10.0, 1.0, 9.0, 0.001, 0.002, 0.003, 0.1],
        [1.0, 1.0, 2.0, 20.0, 0.0, 20.0, 0.002, 0.004, 0.006, 0.0],
    ]
    shard_b = [
        [0.0, 0.1, 1.1, 30.0, 2.0, 28.0, 0.003, 0.006, 0.009, 0.2],
    ]
    merged = WindowedSloTracker.merge_window_series([shard_a, shard_b])
    assert len(merged) == 2

    first = merged[0]
    assert first[0] == 0.0
    assert first[1] == 0.0 and first[2] == 1.1  # min(start), max(end)
    assert first[3] == 40.0 and first[4] == 3.0 and first[5] == 37.0
    # Completion-weighted percentiles: (10*x_a + 30*x_b) / 40.
    assert first[6] == pytest.approx((10 * 0.001 + 30 * 0.003) / 40)
    assert first[7] == pytest.approx((10 * 0.002 + 30 * 0.006) / 40)
    assert first[8] == pytest.approx((10 * 0.003 + 30 * 0.009) / 40)
    assert first[9] == pytest.approx(0.3)

    # Window 1 exists only in shard A — it passes through unchanged
    # except for the re-stamped index.
    assert merged[1] == [1.0, 1.0, 2.0, 20.0, 0.0, 20.0, 0.002, 0.004, 0.006, 0.0]


def test_merge_window_series_zero_completions_and_empty():
    empty_window = [[0.0, 0.0, 1.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
    merged = WindowedSloTracker.merge_window_series([empty_window, empty_window])
    assert merged[0][3] == 0.0
    assert merged[0][4] == 10.0
    assert merged[0][6:9] == [0.0, 0.0, 0.0]
    assert WindowedSloTracker.merge_window_series([]) == []
    assert WindowedSloTracker.merge_window_series([[], []]) == []
