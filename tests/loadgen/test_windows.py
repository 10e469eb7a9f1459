"""WindowedSloTracker: completion-counted windows and SLO signals."""

import math

import pytest

from repro.loadgen.windows import WindowedSloTracker, WindowSnapshot


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_tracker(window=4, slo=0.1, clock=None):
    return WindowedSloTracker(
        window_completions=window,
        slo_latency_s=slo,
        clock=clock or FakeClock(),
    )


class TestValidation:
    def test_window_completions_validated(self):
        with pytest.raises(ValueError):
            make_tracker(window=0)

    def test_slo_latency_validated(self):
        with pytest.raises(ValueError):
            make_tracker(slo=0.0)

    def test_negative_stall_rejected(self):
        tracker = make_tracker()
        with pytest.raises(ValueError):
            tracker.add_stall(-1.0)

    @pytest.mark.parametrize(
        "latency", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"]
    )
    def test_unreportable_latency_rejected(self, latency):
        """A completion whose latency no histogram can hold is refused
        before it counts as a completion or as meeting the SLO."""
        tracker = make_tracker()
        tracker.on_complete(0.002)
        with pytest.raises(ValueError, match="finite and non-negative"):
            tracker.on_complete(latency)
        assert tracker.completions == 1 and tracker.slo_met == 1
        p50 = tracker.cumulative_percentile(50)
        assert p50 == pytest.approx(0.002, rel=0.01)


class TestWindowLifecycle:
    def test_window_closes_on_completion_count(self):
        tracker = make_tracker(window=3)
        for latency in (0.01, 0.02, 0.03):
            tracker.on_complete(latency)
        assert tracker.windows_closed == 1
        window = tracker.last_window
        assert window.completions == 3
        assert window.errors == 0
        assert window.slo_met == 3

    def test_partial_window_stays_open(self):
        tracker = make_tracker(window=10)
        tracker.on_complete(0.01)
        assert tracker.windows_closed == 0
        assert tracker.last_window is None

    def test_errors_count_toward_window_close(self):
        tracker = make_tracker(window=2)
        tracker.on_complete(0.01)
        tracker.on_complete(None)
        assert tracker.windows_closed == 1
        window = tracker.last_window
        assert window.completions == 1
        assert window.errors == 1
        assert window.error_rate == pytest.approx(0.5)

    def test_window_times_come_from_clock(self):
        clock = FakeClock()
        tracker = make_tracker(window=2, clock=clock)
        clock.now = 1.0
        tracker.on_complete(0.01)
        clock.now = 2.0
        tracker.on_complete(0.01)
        window = tracker.last_window
        assert window.start_s == 0.0
        assert window.end_s == 2.0
        # Next window starts where the last one ended.
        clock.now = 3.0
        tracker.on_complete(0.01)
        clock.now = 4.0
        tracker.on_complete(0.01)
        assert tracker.last_window.start_s == 2.0

    def test_observers_called_in_registration_order(self):
        order = []
        tracker = make_tracker(window=1)
        tracker.subscribe(lambda w: order.append("a"))
        tracker.subscribe(lambda w: order.append("b"))
        tracker.on_complete(0.01)
        assert order == ["a", "b"]

    def test_snapshot_row_matches_fields(self):
        tracker = make_tracker(window=1)
        tracker.on_complete(0.05)
        row = tracker.last_window.as_row()
        assert len(row) == len(WindowSnapshot.ROW_FIELDS)
        assert all(isinstance(v, float) for v in row)
        as_dict = dict(zip(WindowSnapshot.ROW_FIELDS, row))
        assert as_dict["completions"] == 1.0
        assert as_dict["slo_met"] == 1.0


class TestEdgeWindows:
    def test_error_only_window_reports_zero_percentiles(self):
        tracker = make_tracker(window=3)
        for _ in range(3):
            tracker.on_complete(None)
        window = tracker.last_window
        assert window.completions == 0
        assert window.errors == 3
        assert window.error_rate == 1.0
        assert window.slo_met == 0
        assert window.p50 == window.p95 == window.p99 == 0.0

    def test_single_sample_window_percentiles_agree(self):
        tracker = make_tracker(window=1)
        tracker.on_complete(0.042)
        window = tracker.last_window
        # All percentiles of a one-sample window are that sample
        # (to HDR bucket resolution).
        assert window.p50 == window.p95 == window.p99
        assert window.p50 == pytest.approx(0.042, rel=0.01)

    def test_slo_judged_on_raw_latency_not_bucket(self):
        # A latency exactly at the SLO counts as met even if its HDR
        # bucket midpoint lands above the threshold.
        tracker = make_tracker(window=1, slo=0.1)
        tracker.on_complete(0.1)
        assert tracker.last_window.slo_met == 1

    def test_empty_tracker_queries(self):
        tracker = make_tracker()
        assert tracker.cumulative_percentile(95.0) == 0.0
        assert tracker.goodput_fraction() == 0.0
        assert tracker.window_series() == []


class TestStallAttribution:
    def test_stall_lands_in_current_window(self):
        tracker = make_tracker(window=2)
        tracker.add_stall(0.5)
        tracker.on_complete(0.01)
        tracker.on_complete(0.01)
        assert tracker.last_window.stall_seconds == pytest.approx(0.5)
        # The next window starts with no stall time.
        tracker.on_complete(0.01)
        tracker.on_complete(0.01)
        assert tracker.last_window.stall_seconds == 0.0
        assert tracker.stall_seconds == pytest.approx(0.5)


class TestResetAndCumulative:
    def test_reset_clears_counters_and_windows(self):
        tracker = make_tracker(window=2)
        for _ in range(4):
            tracker.on_complete(0.01)
        tracker.add_stall(0.2)
        tracker.on_complete(None)  # partial open window
        tracker.reset()
        assert tracker.windows_closed == 0
        assert tracker.windows == []
        assert tracker.completions == 0
        assert tracker.errors == 0
        assert tracker.stall_seconds == 0.0
        assert tracker.cumulative_percentile(50.0) == 0.0
        # The partial window's state must not leak into the first
        # post-reset window.
        tracker.on_complete(0.01)
        tracker.on_complete(0.01)
        assert tracker.last_window.errors == 0
        assert tracker.last_window.stall_seconds == 0.0

    def test_reset_keeps_observers(self):
        closed = []
        tracker = make_tracker(window=1)
        tracker.subscribe(closed.append)
        tracker.on_complete(0.01)
        tracker.reset()
        tracker.on_complete(0.01)
        assert len(closed) == 2

    def test_cumulative_matches_windows(self):
        """Cumulative counters equal the sum over closed windows when
        every window is full (window-reset vs cumulative parity)."""
        tracker = make_tracker(window=5, slo=0.05)
        latencies = [0.01, 0.02, 0.08, 0.04, 0.03] * 4
        for latency in latencies:
            tracker.on_complete(latency)
        assert tracker.windows_closed == 4
        assert sum(w.completions for w in tracker.windows) == tracker.completions
        assert sum(w.slo_met for w in tracker.windows) == tracker.slo_met
        assert sum(w.errors for w in tracker.windows) == tracker.errors

    def test_cumulative_percentile_spans_windows(self):
        """Per-window histograms clear at each close; the cumulative
        histogram must keep every sample."""
        tracker = make_tracker(window=2)
        for latency in (0.001, 0.001, 0.1, 0.1):
            tracker.on_complete(latency)
        # Last window only saw the slow samples ...
        assert tracker.last_window.p50 == pytest.approx(0.1, rel=0.01)
        # ... but the cumulative view spans both windows.
        assert tracker.cumulative_percentile(50.0) == pytest.approx(
            0.001, rel=0.01
        )
        assert tracker.cumulative_percentile(99.0) == pytest.approx(
            0.1, rel=0.01
        )
