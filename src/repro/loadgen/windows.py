"""Windowed in-run SLO tracking over completion-counted windows.

End-of-run percentiles hide how a benchmark *degrades*: a brownout that
ruins thirty seconds of a two-minute window barely moves the aggregate
p95, yet production SLO dashboards (and the controllers that act on
them) see exactly that thirty-second cliff.  The
:class:`WindowedSloTracker` closes the gap: completions stream into
fixed-size windows (counted in completions, never in wall time, so two
runs of the same seed close windows at the same instants), each window
is summarized into a :class:`WindowSnapshot` — p50/p95/p99 from an
HDR-style :class:`~repro.loadgen.recorder.BucketedHistogram`, error
rate, SLO-met count, goodput fraction, attributed device stall time —
and observers (load shedders, admission controllers, brownout
responders) react at window boundaries.

Determinism contract: window boundaries depend only on the completion
sequence; every field of a snapshot is a pure function of the
completions and stalls attributed to that window.  Replays are
byte-identical by construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.loadgen.recorder import BucketedHistogram


class WindowSnapshot:
    """One closed window's SLO signals.

    Percentiles come from the window's HDR histogram (bucket-midpoint
    resolution, ~0.4%); counts are exact.  ``slo_met`` counts
    *successes at or under the SLO latency*, judged on the raw latency
    (not the bucketed value) so the goodput signal carries no
    quantization error.  A window that closed on errors alone reports
    zero percentiles with ``error_rate == 1.0`` — the shape every
    consumer can rely on.
    """

    __slots__ = (
        "index",
        "start_s",
        "end_s",
        "completions",
        "errors",
        "slo_met",
        "p50",
        "p95",
        "p99",
        "stall_seconds",
    )

    def __init__(
        self,
        index: int,
        start_s: float,
        end_s: float,
        completions: int,
        errors: int,
        slo_met: int,
        p50: float,
        p95: float,
        p99: float,
        stall_seconds: float,
    ) -> None:
        self.index = index
        self.start_s = start_s
        self.end_s = end_s
        self.completions = completions
        self.errors = errors
        self.slo_met = slo_met
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.stall_seconds = stall_seconds

    @property
    def total(self) -> int:
        """Requests that finished in this window, successes + errors."""
        return self.completions + self.errors

    @property
    def error_rate(self) -> float:
        total = self.total
        return self.errors / total if total else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Fraction of finished requests that met the SLO."""
        total = self.total
        return self.slo_met / total if total else 0.0

    def as_row(self) -> List[float]:
        """Compact report row (JSON/codec-safe plain floats)."""
        return [
            float(self.index),
            self.start_s,
            self.end_s,
            float(self.completions),
            float(self.errors),
            float(self.slo_met),
            self.p50,
            self.p95,
            self.p99,
            self.stall_seconds,
        ]

    #: Column names for :meth:`as_row`, in order.
    ROW_FIELDS = (
        "index",
        "start_s",
        "end_s",
        "completions",
        "errors",
        "slo_met",
        "p50",
        "p95",
        "p99",
        "stall_seconds",
    )


#: Observer signature: called with each closed window's snapshot.
WindowObserver = Callable[[WindowSnapshot], None]


class WindowedSloTracker:
    """Rolling per-window latency/error/goodput signals during a run.

    ``clock`` supplies the current simulated time (pass ``env.now`` via
    a lambda or ``lambda: env.now``-equivalent); it is used only to
    stamp window start/end times for reporting — window *boundaries*
    are decided by completion counts alone.

    ``on_window`` observers are invoked in registration order at every
    window close; they run inside the completion callback, so anything
    they mutate (drop probabilities, relief factors) takes effect for
    the very next arrival — the closed-loop property the control plane
    needs.
    """

    __slots__ = (
        "window_completions",
        "slo_latency_s",
        "_clock",
        "_observers",
        "_window_hist",
        "_window_errors",
        "_window_slo_met",
        "_window_stall_s",
        "_window_start_s",
        "_cumulative_hist",
        "completions",
        "errors",
        "slo_met",
        "stall_seconds",
        "windows",
        "windows_closed",
    )

    def __init__(
        self,
        window_completions: int,
        slo_latency_s: float,
        clock: Callable[[], float],
        on_window: Optional[WindowObserver] = None,
    ) -> None:
        if window_completions < 1:
            raise ValueError("window_completions must be >= 1")
        if slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive")
        self.window_completions = window_completions
        self.slo_latency_s = slo_latency_s
        self._clock = clock
        self._observers: List[WindowObserver] = []
        if on_window is not None:
            self._observers.append(on_window)
        self._window_hist = BucketedHistogram()
        self._window_errors = 0
        self._window_slo_met = 0
        self._window_stall_s = 0.0
        self._window_start_s = clock()
        self._cumulative_hist = BucketedHistogram()
        self.completions = 0
        self.errors = 0
        self.slo_met = 0
        self.stall_seconds = 0.0
        self.windows: List[WindowSnapshot] = []
        self.windows_closed = 0

    # -- observers -------------------------------------------------------------
    def subscribe(self, observer: WindowObserver) -> None:
        """Add a window-close observer (called in registration order)."""
        self._observers.append(observer)

    # -- recording -------------------------------------------------------------
    def on_complete(self, latency: Optional[float]) -> None:
        """Generator completion hook: ``None`` means a request error."""
        if latency is None:
            self.errors += 1
            self._window_errors += 1
        else:
            # The histograms refuse nan, inf and negative latencies
            # before any counter moves.
            self._window_hist.record(latency)
            self._cumulative_hist.record(latency)
            self.completions += 1
            if latency <= self.slo_latency_s:
                self.slo_met += 1
                self._window_slo_met += 1
        if self._window_hist.total + self._window_errors >= self.window_completions:
            self._close_window()

    def add_stall(self, seconds: float) -> None:
        """Attribute device stall time to the current window.

        Folds block-device write-stall time into the SLO signals: a
        window during which the storage engine stalled foreground puts
        carries that time explicitly, rather than only implicitly
        through inflated latencies.
        """
        if seconds < 0:
            raise ValueError("stall seconds must be non-negative")
        self._window_stall_s += seconds
        self.stall_seconds += seconds

    # -- window lifecycle ------------------------------------------------------
    def _close_window(self) -> None:
        hist = self._window_hist
        now = self._clock()
        if hist.total:
            p50 = hist.percentile(50.0)
            p95 = hist.percentile(95.0)
            p99 = hist.percentile(99.0)
        else:  # error-only window: explicit zero latencies
            p50 = p95 = p99 = 0.0
        snapshot = WindowSnapshot(
            index=self.windows_closed,
            start_s=self._window_start_s,
            end_s=now,
            completions=hist.total,
            errors=self._window_errors,
            slo_met=self._window_slo_met,
            p50=p50,
            p95=p95,
            p99=p99,
            stall_seconds=self._window_stall_s,
        )
        self.windows.append(snapshot)
        self.windows_closed += 1
        hist.clear()
        self._window_errors = 0
        self._window_slo_met = 0
        self._window_stall_s = 0.0
        self._window_start_s = now
        for observer in self._observers:
            observer(snapshot)

    # -- queries ---------------------------------------------------------------
    @property
    def last_window(self) -> Optional[WindowSnapshot]:
        return self.windows[-1] if self.windows else None

    def cumulative_percentile(self, p: float) -> float:
        """Percentile over every success since the last reset."""
        if self._cumulative_hist.total == 0:
            return 0.0
        return self._cumulative_hist.percentile(p)

    def goodput_fraction(self) -> float:
        """Cumulative fraction of finished requests that met the SLO."""
        total = self.completions + self.errors
        return self.slo_met / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Scalar cumulative signals (report/extra-safe floats)."""
        return {
            "completions": float(self.completions),
            "errors": float(self.errors),
            "slo_met": float(self.slo_met),
            "windows": float(self.windows_closed),
            "goodput_fraction": self.goodput_fraction(),
            "p50": self.cumulative_percentile(50.0),
            "p95": self.cumulative_percentile(95.0),
            "p99": self.cumulative_percentile(99.0),
            "stall_seconds": self.stall_seconds,
        }

    def window_series(self) -> List[List[float]]:
        """Every closed window as a compact report row."""
        return [w.as_row() for w in self.windows]

    @staticmethod
    def merge_window_series(
        series_list: List[List[List[float]]],
    ) -> List[List[float]]:
        """Merge per-shard window series into one fleet-level series.

        Shard environments close windows independently, so rows are
        aligned *by window index*: fleet window ``i`` aggregates every
        shard's window ``i`` (shards that closed fewer windows simply
        stop contributing).  Counts (completions, errors, slo_met,
        stall time) add; the window spans ``min(start)``..``max(end)``
        across the contributing shards; percentiles are the
        completion-weighted mean of the shard percentiles (zero when no
        shard completed anything that window).  Pure and deterministic:
        the output depends only on the input rows, in shard order, so
        every execution path merges to the same bytes.
        """
        length = max((len(series) for series in series_list), default=0)
        merged: List[List[float]] = []
        for i in range(length):
            rows = [series[i] for series in series_list if len(series) > i]
            completions = sum(row[3] for row in rows)
            weights = [row[3] for row in rows]
            if completions > 0:
                percentiles = [
                    sum(row[col] * w for row, w in zip(rows, weights))
                    / completions
                    for col in (6, 7, 8)
                ]
            else:
                percentiles = [0.0, 0.0, 0.0]
            merged.append(
                [
                    float(i),
                    min(row[1] for row in rows),
                    max(row[2] for row in rows),
                    completions,
                    sum(row[4] for row in rows),
                    sum(row[5] for row in rows),
                    percentiles[0],
                    percentiles[1],
                    percentiles[2],
                    sum(row[9] for row in rows),
                ]
            )
        return merged

    def reset(self) -> None:
        """Restart accounting at a measurement-window edge.

        Clears cumulative counters, closed windows, and the open
        window's partial state, but deliberately does *not* touch
        subscribed observers — controller state (drop probabilities,
        relief steps) carries across the warmup edge exactly as it
        does on a production box that was already shedding when the
        measurement started.
        """
        self._window_hist.clear()
        self._window_errors = 0
        self._window_slo_met = 0
        self._window_stall_s = 0.0
        self._window_start_s = self._clock()
        self._cumulative_hist.clear()
        self.completions = 0
        self.errors = 0
        self.slo_met = 0
        self.stall_seconds = 0.0
        self.windows = []
        self.windows_closed = 0
