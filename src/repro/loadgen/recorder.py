"""Latency recording: exact percentiles, and HDR-style buckets.

:class:`LatencyRecorder` collects per-request latencies and computes
percentiles by sorting (exact, not approximated — sample counts in the
simulations are small enough that a t-digest would be overkill and
less testable).

:class:`BucketedHistogram` trades that exactness for O(buckets)
percentile reads: samples land in log-linear HDR-style buckets, so an
in-run monitor (the SLO windows, storagebench's stall recorder,
llmbench's inter-token gaps) can query percentiles continuously
without re-sorting a sample list.
"""

from __future__ import annotations

import bisect
import heapq
from math import inf as _INF
from typing import Dict, List

_BAD_LATENCY = "latency must be finite and non-negative, got {!r}"


class BucketedHistogram:
    """Log-linear (HDR-style) histogram over non-negative seconds.

    Values are quantized to integer microseconds and counted in
    log-linear buckets: values below ``2**precision_bits`` µs get one
    bucket each (exact), and every further power-of-two magnitude is
    split into ``2**precision_bits`` equal sub-buckets.  The worst-case
    relative quantization error is therefore ``2**-(precision_bits+1)``
    (~0.4% at the default 7 bits), independent of the value's size —
    the HdrHistogram guarantee.

    Percentile reads walk the non-empty buckets (O(buckets · log
    buckets) with the sparse dict representation) instead of sorting
    the sample list, so they are cheap enough to call per-completion.
    """

    __slots__ = ("precision_bits", "_sub_count", "_counts", "_total", "_max_units")

    def __init__(self, precision_bits: int = 7) -> None:
        if not 1 <= precision_bits <= 14:
            raise ValueError("precision_bits must be in [1, 14]")
        self.precision_bits = precision_bits
        self._sub_count = 1 << precision_bits
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._max_units = 0

    # -- unit/bucket mapping ---------------------------------------------------
    @staticmethod
    def _units(seconds: float) -> int:
        """Quantize to integer microseconds (half-up)."""
        return int(seconds * 1e6 + 0.5)

    def _bucket_mid_seconds(self, index: int) -> float:
        """Representative (midpoint) value of a bucket, in seconds."""
        sub = self._sub_count
        if index < sub:
            return index / 1e6
        shift = index // sub - 1
        low = (index - shift * sub) << shift
        width = 1 << shift
        return (low + (width - 1) * 0.5) / 1e6

    # -- recording -------------------------------------------------------------
    def record(self, seconds: float, count: int = 1) -> None:
        """Count ``count`` samples of ``seconds`` (``count`` >= 1).

        ``seconds`` must be finite and >= 0: no bucket holds ``nan``,
        ``inf`` or a negative value.  The checks run before any state
        changes.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        # One chained comparison: false for nan, inf and negatives.
        if not 0.0 <= seconds < _INF:
            raise ValueError(_BAD_LATENCY.format(seconds))
        units = self._units(seconds)
        # The bucket: ``units < sub`` map 1:1 (exact); magnitude ``k``
        # (``units in [sub<<k, sub<<(k+1))``) lands at ``k*sub + (units
        # >> k)`` — contiguous, monotone, and unique.
        sub = self._sub_count
        if units < sub:
            index = units
        else:
            shift = units.bit_length() - self.precision_bits - 1
            index = shift * sub + (units >> shift)
        self._counts[index] = self._counts.get(index, 0) + count
        self._total += count
        if units > self._max_units:
            self._max_units = units

    @property
    def total(self) -> int:
        return self._total

    @property
    def bucket_count(self) -> int:
        """Number of non-empty buckets (the O(buckets) in reads)."""
        return len(self._counts)

    # -- queries ---------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (bucket midpoint; max is exact)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self._total == 0:
            raise ValueError("no samples recorded")
        if p >= 100.0:
            return self._max_units / 1e6
        target = max(1, int(p / 100.0 * self._total + 0.5))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                return self._bucket_mid_seconds(index)
        return self._max_units / 1e6

    def clear(self) -> None:
        self._counts.clear()
        self._total = 0
        self._max_units = 0


class LatencyRecorder:
    """Accumulates latencies (seconds) and answers percentile queries.

    Keeps every sample and sorts on demand, so every percentile is
    exact.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self.errors = 0

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency_seconds: float, count: int = 1) -> None:
        """Record ``count`` requests that each took ``latency_seconds``.

        A latency must be a finite number >= 0: a ``nan`` would poison
        every percentile.  The check runs before any state changes.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        # One chained comparison: false for nan, inf and negatives.
        if not 0.0 <= latency_seconds < _INF:
            raise ValueError(_BAD_LATENCY.format(latency_seconds))
        if count == 1:
            self._samples.append(latency_seconds)
        else:
            self._samples.extend([latency_seconds] * count)
        self._sorted = False

    def record_error(self) -> None:
        """Count a failed request (timeouts, 5xx) without a latency."""
        self.errors += 1

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            raise ValueError("no samples recorded")
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = p / 100.0 * (len(self._samples) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(self._samples) - 1)
        weight = rank - lower
        return self._samples[lower] * (1.0 - weight) + self._samples[upper] * weight

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples recorded")
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        if not self._samples:
            raise ValueError("no samples recorded")
        self._ensure_sorted()
        return self._samples[-1]

    def fraction_below(self, threshold_seconds: float) -> float:
        """Fraction of successful requests at or under the threshold.

        This is SLO compliance when the threshold is the latency
        objective; errors count as misses (the denominator includes
        them) because a failed request never met its SLO.
        """
        total = len(self) + self.errors
        if total == 0:
            return 1.0
        self._ensure_sorted()
        within = bisect.bisect_right(self._samples, threshold_seconds)
        return within / total

    def summary(self) -> Dict[str, float]:
        """The latency distribution DCPerf reports per benchmark."""
        if len(self) == 0:
            return {"count": 0, "errors": self.errors}
        return {
            "count": len(self),
            "errors": self.errors,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold ``other`` into this recorder.

        The merged recorder answers every query exactly as if it had
        recorded the union of both sample streams (plus both error
        counts).  The two already-sorted sample lists are merged in
        O(n + m) — no re-sort.
        """
        self._ensure_sorted()
        other._ensure_sorted()
        self._samples = list(heapq.merge(self._samples, other._samples))
        self._sorted = True
        self.errors += other.errors
        return self

    def mergeable_state(self) -> Dict[str, object]:
        """Codec-safe full state for cross-process shard merging.

        The returned tree holds only JSON primitives (an int and a list
        of floats), round-trips losslessly through both report codecs,
        and reconstructs via :meth:`from_state`.  The samples ship
        sorted — canonical, so two transports of the same recorder are
        byte-identical.
        """
        self._ensure_sorted()
        return {"errors": self.errors, "samples": list(self._samples)}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LatencyRecorder":
        """Reconstruct a recorder from :meth:`mergeable_state` output."""
        recorder = cls()
        recorder.errors = int(state["errors"])  # type: ignore[arg-type]
        recorder._samples = [float(s) for s in state["samples"]]  # type: ignore[union-attr]
        recorder._sorted = True  # states are canonical: sorted
        return recorder

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = True
        self.errors = 0
