"""Operational scenarios: failover spikes and named fault scenarios.

Region-failover load spike (Section 2.3):

"This situation typically arises when some servers must handle a load
spike due to another datacenter region failing entirely."  Budgeted
power — the quantity datacenters actually reserve — is defined by this
scenario, not by TDP.  The scenario runner executes a workload at its
normal operating point and again at the post-failover load, and reports
what procurement needs: the spike's power draw (is it within budget?)
and its SLO behaviour (does the service survive?).

Named fault scenarios: a :class:`FaultScenario` is one value (a fault
schedule, a resilience policy, an optional SLO control policy and a
load multiplier) that a run carries whole as ``RunConfig.scenario``;
:data:`FAULT_SCENARIOS` registers the ones the CLI names.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.control import SloControlPolicy
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import FaultSpec
from repro.hw.tco import budgeted_power_w
from repro.workloads.base import RunConfig, Workload, WorkloadResult


@dataclass(frozen=True)
class SpikeOutcome:
    """Results of the normal vs failover-spike comparison."""

    workload: str
    sku: str
    normal: WorkloadResult
    spiked: WorkloadResult
    spike_multiplier: float
    budgeted_power_w: float

    @property
    def power_headroom_w(self) -> float:
        """Budgeted power minus the spike's draw (negative = violation)."""
        return self.budgeted_power_w - self.spiked.power_watts

    @property
    def within_power_budget(self) -> bool:
        return self.power_headroom_w >= 0.0

    @property
    def throughput_gain(self) -> float:
        """How much extra traffic the spike actually served."""
        if self.normal.throughput_rps <= 0:
            return 0.0
        return self.spiked.throughput_rps / self.normal.throughput_rps - 1.0

    @property
    def latency_inflation(self) -> float:
        """p95 inflation under the spike (uses whatever p95 both report)."""
        normal_p95 = self.normal.latency.get("p95")
        spiked_p95 = self.spiked.latency.get("p95")
        if not normal_p95 or not spiked_p95:
            return 0.0
        return spiked_p95 / normal_p95 - 1.0


def run_failover_spike(
    workload: Workload,
    config: Optional[RunConfig] = None,
    regions: int = 3,
    spike_fraction: float = 0.95,
) -> SpikeOutcome:
    """Run the normal and post-failover operating points.

    With ``regions`` regions sharing traffic evenly, losing one region
    multiplies every survivor's load by ``regions / (regions - 1)``.
    """
    if regions < 2:
        raise ValueError("need at least 2 regions for a failover scenario")
    config = config or RunConfig()
    spike_multiplier = regions / (regions - 1)

    normal = workload.run(config)
    spiked_config = dataclasses.replace(
        config, load_scale=config.load_scale * spike_multiplier
    )
    spiked = workload.run(spiked_config)
    return SpikeOutcome(
        workload=workload.name,
        sku=config.sku_name,
        normal=normal,
        spiked=spiked,
        spike_multiplier=spike_multiplier,
        budgeted_power_w=budgeted_power_w(
            config.sku.designed_power_w, spike_fraction
        ),
    )


# --- Named fault scenarios ----------------------------------------------------


@dataclass(frozen=True)
class FaultScenario:
    """A named fault schedule + resilience policy + SLO control policy.

    Scenarios are the user-facing handle for fault injection: a name on
    the CLI (``--faults brownout``) resolves here, travels on
    :class:`~repro.exec.spec.RunPoint` as a string, and is digested
    into the run fingerprint via the registry below — renaming or
    re-tuning a scenario invalidates cached results, exactly as a code
    change would.  A scenario built outside the registry runs the same
    way: pass it whole as ``RunConfig(scenario=...)``.

    ``schedule`` is a tuple of fault specs (empty for pure overload);
    ``control`` opts the scenario into the in-run SLO control plane
    (windowed tracking + shedding/admission/brownout behaviors), and
    ``None`` leaves it off; ``load_multiplier`` scales the run's
    offered load, letting pure overload scenarios exist without any
    hardware fault at all.  Every workload applies it through
    :attr:`RunConfig.offered_load_scale
    <repro.workloads.base.RunConfig.offered_load_scale>`, however the
    config got its scenario.
    """

    name: str
    description: str
    schedule: Tuple[FaultSpec, ...]
    policy: ResiliencePolicy
    control: Optional[SloControlPolicy] = None
    load_multiplier: float = 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "schedule": [spec.as_dict() for spec in self.schedule],
            "policy": self.policy.as_dict(),
            "control": None if self.control is None else self.control.as_dict(),
            "load_multiplier": self.load_multiplier,
        }


#: Scenario registry.  Onsets/durations are fractions of the
#: measurement window, so scenarios are meaningful at any
#: ``measure_seconds``.
FAULT_SCENARIOS: Dict[str, FaultScenario] = {
    scenario.name: scenario
    for scenario in (
        FaultScenario(
            name="brownout",
            description=(
                "Thermal brownout: the clock loses 35% for half the "
                "window while a co-tenant leans on the memory subsystem."
            ),
            schedule=(
                FaultSpec("freq_throttle", 0.20, 0.50, 0.35),
                FaultSpec("mem_pressure", 0.40, 0.40, 0.50),
            ),
            policy=ResiliencePolicy(max_retries=1),
        ),
        FaultScenario(
            name="blackout",
            description=(
                "Crash-restart: the server refuses work for 15% of the "
                "window; clients ride it out with retries and a breaker."
            ),
            schedule=(FaultSpec("server_crash", 0.30, 0.15),),
            policy=ResiliencePolicy(
                max_retries=3,
                backoff_base_s=0.01,
                breaker_failure_threshold=20,
                breaker_reset_s=0.1,
            ),
        ),
        FaultScenario(
            name="flaky_network",
            description=(
                "Lossy, slow network: 2ms extra latency and 5% attempt "
                "loss for most of the window; hedging covers the tail."
            ),
            schedule=(
                FaultSpec("net_latency", 0.20, 0.70, 0.002),
                FaultSpec("net_loss", 0.20, 0.70, 0.05),
            ),
            policy=ResiliencePolicy(hedge_delay_s=0.02),
        ),
        FaultScenario(
            name="disk_degraded",
            description=(
                "Degraded flash: block-device service times inflate 4x "
                "for most of the window — compaction backlogs, the "
                "block cache stops absorbing misses, and write stalls "
                "surface in foreground p99."
            ),
            schedule=(FaultSpec("disk_degraded", 0.20, 0.60, 4.0),),
            policy=ResiliencePolicy(max_retries=1),
        ),
        FaultScenario(
            name="brownout_degraded_disk",
            description=(
                "Compound brownout: a 30% clock throttle overlaps a "
                "3x-degraded flash device and memory pressure; the "
                "control plane sheds load and browns out serving "
                "quality until the SLO recovers."
            ),
            schedule=(
                FaultSpec("freq_throttle", 0.15, 0.55, 0.30),
                FaultSpec("disk_degraded", 0.25, 0.50, 3.0),
                FaultSpec("mem_pressure", 0.35, 0.40, 0.40),
            ),
            policy=ResiliencePolicy(max_retries=1),
            control=SloControlPolicy(shed_step=0.1, brownout_enabled=True),
        ),
        FaultScenario(
            name="flaky_network_compaction",
            description=(
                "Lossy, slow network while storage compactions back up "
                "on a 4x-degraded device; per-instance admission caps "
                "bound in-flight work and device stall time lands in "
                "the SLO accounting, not just the iostat section."
            ),
            schedule=(
                FaultSpec("net_latency", 0.15, 0.65, 0.002),
                FaultSpec("net_loss", 0.20, 0.55, 0.05),
                FaultSpec("disk_degraded", 0.30, 0.55, 4.0),
            ),
            policy=ResiliencePolicy(hedge_delay_s=0.02),
            control=SloControlPolicy(
                shed_step=0.08, admit_max_inflight_per_instance=96
            ),
        ),
        FaultScenario(
            name="overload_shed",
            description=(
                "Pure overload: offered load doubles (a failed "
                "region's traffic) with no hardware fault; the "
                "CoDel-style shedder drops just enough at admission "
                "to keep admitted requests inside the SLO."
            ),
            schedule=(),
            policy=ResiliencePolicy(max_retries=0),
            load_multiplier=2.0,
            control=SloControlPolicy(
                shed_target_latency_s=0.08,
                shed_interval_windows=1,
                shed_step=0.15,
                shed_decay=0.7,
                shed_error_rate_threshold=0.15,
            ),
        ),
        FaultScenario(
            name="noisy_neighbor",
            description=(
                "Co-tenant interference: a 1.6x slowdown through the "
                "middle of the window plus a cache flush at its center."
            ),
            schedule=(
                FaultSpec("server_slowdown", 0.25, 0.50, 1.6),
                FaultSpec("cache_flush", 0.50, 0.20, 0.40),
            ),
            policy=ResiliencePolicy(max_retries=1),
        ),
    )
}


def fault_scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, sorted for stable CLI help/digests."""
    return tuple(sorted(FAULT_SCENARIOS))


def get_fault_scenario(name: str) -> FaultScenario:
    """Look up a scenario by name, with a helpful error."""
    try:
        return FAULT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(fault_scenario_names())
        raise KeyError(
            f"unknown fault scenario {name!r}; known scenarios: {known}"
        ) from None


def apply_fault_scenario(config: RunConfig, name: str) -> RunConfig:
    """Return ``config`` carrying the named scenario.

    ``load_scale`` stays as it was: the scenario's load multiplier
    compounds with it in :attr:`RunConfig.offered_load_scale
    <repro.workloads.base.RunConfig.offered_load_scale>`.
    """
    return dataclasses.replace(config, scenario=get_fault_scenario(name))
