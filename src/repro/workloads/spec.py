"""SPEC CPU 2006/2017 comparator suites.

SPEC CPU rate runs are single-process, user-space compute loops — one
copy pinned per logical core, no RPC, no kernel time, no SLO.  The
model therefore skips the event-level simulation entirely: throughput
is the projection engine's instruction rate at 100% utilization with
perfect scaling, which is exactly the property that makes SPEC
*overestimate* many-core datacenter performance (Figure 2/3) — real
datacenter workloads lose throughput to kernel time, synchronization,
and SLOs that SPEC never pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hw.sku import ServerSku, get_sku
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.uarch.projection import ProjectionEngine, SteadyState
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import SPEC2017_PROFILES
from repro.uarch.calibrate import calibrate
from repro.workloads.targets import SPEC2006_TARGETS


def _build_spec2006() -> Dict[str, WorkloadCharacteristics]:
    from repro.workloads.profiles import _SPEC_STRUCTURE

    return {
        name: calibrate(target, _SPEC_STRUCTURE)
        for name, target in SPEC2006_TARGETS.items()
    }


SPEC2006_PROFILES: Dict[str, WorkloadCharacteristics] = _build_spec2006()


class SpecBenchmark(Workload):
    """One SPEC component benchmark in rate mode."""

    category = "spec"
    metric_name = "rate score (normalized instr/s)"

    def __init__(self, chars: WorkloadCharacteristics) -> None:
        self._chars = chars
        self.name = chars.name

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def steady_state(self, sku: ServerSku) -> SteadyState:
        return ProjectionEngine(sku).solve(self._chars, cpu_util=1.0)

    def run(self, config: RunConfig) -> WorkloadResult:
        state = self.steady_state(config.sku)
        return WorkloadResult(
            workload=self.name,
            sku=config.sku_name,
            kernel=config.kernel_version,
            throughput_rps=state.instructions_per_second,
            latency={"count": 1.0},
            cpu_util=1.0,
            kernel_util=self._chars.kernel_frac,
            scaling_efficiency=1.0,
            steady=state,
        )


@dataclass
class SpecSuite:
    """A SPEC generation: per-benchmark scores + geometric mean."""

    name: str
    profiles: Dict[str, WorkloadCharacteristics]

    def benchmarks(self) -> List[SpecBenchmark]:
        return [SpecBenchmark(chars) for chars in self.profiles.values()]

    def throughput(self, sku_name: str) -> Dict[str, float]:
        """Per-benchmark instruction throughput on a SKU."""
        sku = get_sku(sku_name)
        return {
            bench.name: bench.steady_state(sku).instructions_per_second
            for bench in self.benchmarks()
        }

    def score(self, sku_name: str, baseline: str = "SKU1") -> float:
        """Geomean of per-benchmark ratios vs the baseline SKU."""
        current = self.throughput(sku_name)
        base = self.throughput(baseline)
        product = 1.0
        for name in current:
            product *= current[name] / base[name]
        return product ** (1.0 / len(current))

    def average_power_watts(self, sku_name: str) -> float:
        """Mean wall power across the suite on a SKU (Perf/Watt input)."""
        sku = get_sku(sku_name)
        watts = [
            bench.steady_state(sku).power_watts for bench in self.benchmarks()
        ]
        return sum(watts) / len(watts)


def spec2017_suite() -> SpecSuite:
    return SpecSuite(name="spec2017", profiles=dict(SPEC2017_PROFILES))


def spec2006_suite() -> SpecSuite:
    return SpecSuite(name="spec2006", profiles=dict(SPEC2006_PROFILES))


def get_spec_benchmark(name: str) -> SpecBenchmark:
    """Look up one SPEC component by its full name (e.g. 505.mcf)."""
    for profiles in (SPEC2017_PROFILES, SPEC2006_PROFILES):
        if name in profiles:
            return SpecBenchmark(profiles[name])
    raise KeyError(f"unknown SPEC benchmark {name!r}")
