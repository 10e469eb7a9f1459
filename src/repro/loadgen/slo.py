"""Service-level objectives and max-throughput-under-SLO search.

FeedSim's methodology (Section 3.2): "the client generates load to
determine the maximum request rate FeedSim can handle while maintaining
the 95th percentile latency within the SLO of 500ms."  The search here
is a bisection over offered load: each probe runs a fresh simulation at
a candidate rate and checks the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class SLO:
    """A latency/error-rate objective."""

    percentile: float = 95.0
    latency_seconds: float = 0.5
    max_error_rate: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.latency_seconds <= 0:
            raise ValueError("latency_seconds must be positive")
        if not 0 <= self.max_error_rate <= 1:
            raise ValueError("max_error_rate must be in [0, 1]")


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one trial run at a candidate load."""

    offered_rps: float
    achieved_rps: float
    latency_at_percentile: float
    error_rate: float
    cpu_util: float
    #: The trial's full result, for a caller that reports it as its run.
    run: Any = field(default=None, compare=False, repr=False)

    def meets(self, slo: SLO) -> bool:
        return (
            self.latency_at_percentile <= slo.latency_seconds
            and self.error_rate <= slo.max_error_rate
        )


@dataclass(frozen=True)
class SloSearchResult:
    """The search's converged operating point."""

    max_rps: float
    probe: ProbeResult
    probes_run: int


#: A probe function runs the workload at an offered rate and reports.
ProbeFn = Callable[[float], ProbeResult]


def find_max_load(
    probe: ProbeFn,
    slo: SLO,
    low_rps: float,
    high_rps: float,
    tolerance: float = 0.03,
    max_probes: int = 16,
) -> SloSearchResult:
    """Bisect for the highest offered load that meets the SLO.

    ``low_rps`` must meet the SLO (the search raises otherwise) and
    ``high_rps`` should violate it; if ``high_rps`` passes, it is
    returned directly (the workload saturates elsewhere, e.g. CPU).
    """
    if not 0 < low_rps < high_rps:
        raise ValueError("need 0 < low_rps < high_rps")
    probes = 0

    best: Optional[ProbeResult] = None
    low_result = probe(low_rps)
    probes += 1
    # If even the starting load violates the SLO (latency is dominated
    # by the request's own critical path), step down a few times before
    # concluding the workload cannot meet it at any load.
    while not low_result.meets(slo) and probes < max_probes:
        low_rps /= 2.0
        low_result = probe(low_rps)
        probes += 1
    if not low_result.meets(slo):
        raise ValueError(
            f"the SLO cannot be met even at {low_rps:.3g} rps "
            f"(p{slo.percentile}={low_result.latency_at_percentile:.3f}s)"
        )
    best = low_result

    high_result = probe(high_rps)
    probes += 1
    if high_result.meets(slo):
        return SloSearchResult(max_rps=high_rps, probe=high_result, probes_run=probes)

    low, high = low_rps, high_rps
    while probes < max_probes and (high - low) / high > tolerance:
        mid = (low + high) / 2.0
        result = probe(mid)
        probes += 1
        if result.meets(slo):
            low, best = mid, result
        else:
            high = mid
    assert best is not None
    return SloSearchResult(max_rps=low, probe=best, probes_run=probes)
