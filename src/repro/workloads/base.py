"""Workload base types: run configuration, results, and the ABC."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults.control import DISABLED_CONTROL, SloControlPolicy
from repro.faults.resilience import DISABLED_POLICY, ResiliencePolicy
from repro.faults.schedule import EMPTY_SCHEDULE, FaultSchedule
from repro.hw.sku import ServerSku, get_sku
from repro.oskernel.kernel import KernelVersion, get_kernel
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.uarch.projection import SteadyState


@dataclass(frozen=True)
class RunConfig:
    """How to run a benchmark.

    ``load_scale`` multiplies the workload's default offered load
    (1.0 = the load that saturates the benchmark's target operating
    point).  How many production requests one simulated request stands
    for is the workload's own choice, not the run's (see
    :class:`~repro.workloads.runner.BenchmarkHarness`).

    ``faults`` is the deterministic fault schedule the harness replays
    during the measurement window and ``resilience`` the client-side
    policy (deadlines, retries, breaker, hedging) active for the run;
    both default to no-op so fault-free runs are untouched.
    ``fault_scenario`` carries the named scenario (if any) for
    reporting — the schedule/policy pair are what actually executes.

    ``slo_control`` opts the run into the continuous in-run SLO
    control plane: a windowed percentile tracker plus the SLO-triggered
    behaviors it drives (load shedding, per-instance admission caps,
    brownout relief — see :mod:`repro.faults.control`).  It defaults to
    disabled so the plain golden path is untouched; control
    runs never stop early (shedding makes their windows deliberately
    non-stationary, like fault runs).

    ``shards``/``shard_index`` implement intra-run sharding: a run with
    ``shards=N`` is executed as N statistically-independent shard
    environments, each carrying ``shard_index in [0, N)``, a seed
    derived from the run seed (:func:`repro.exec.spec.shard_seed`), and
    ``load_scale / N`` of the offered rate; the executor merges the N
    shard results into one report.  ``shard_index == -1`` marks the
    parent (unsharded or merged) view.  A config with ``shards=1`` is
    byte-identical to one built before sharding existed.

    ``early_stop`` lets the harness end the measurement window early
    once the windowed latency means have converged (a deterministic,
    completion-count-based test — see
    :class:`~repro.workloads.runner.ConvergenceMonitor`).  It defaults
    to off so directly constructed configs reproduce the full fixed
    window byte-for-byte; the CLI and sweep tools enable it unless
    ``--no-early-stop`` is given.  Fault-injection runs never stop
    early: their windows are deliberately non-stationary.
    """

    sku_name: str = "SKU2"
    kernel_version: str = "6.9"
    seed: int = 7
    warmup_seconds: float = 0.5
    measure_seconds: float = 2.0
    load_scale: float = 1.0
    faults: FaultSchedule = EMPTY_SCHEDULE
    resilience: ResiliencePolicy = DISABLED_POLICY
    fault_scenario: str = ""
    slo_control: SloControlPolicy = DISABLED_CONTROL
    early_stop: bool = False
    shards: int = 1
    shard_index: int = -1

    def __post_init__(self) -> None:
        if self.warmup_seconds < 0 or self.measure_seconds <= 0:
            raise ValueError("invalid measurement window")
        if self.load_scale <= 0:
            raise ValueError("load_scale must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not -1 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index {self.shard_index} out of range for "
                f"{self.shards} shard(s)"
            )

    @property
    def sku(self) -> ServerSku:
        return get_sku(self.sku_name)

    @property
    def kernel(self) -> KernelVersion:
        return get_kernel(self.kernel_version)


@dataclass
class WorkloadResult:
    """Everything one benchmark run reports."""

    workload: str
    sku: str
    kernel: str
    throughput_rps: float
    latency: Dict[str, float]
    cpu_util: float
    kernel_util: float
    scaling_efficiency: float
    steady: Optional[SteadyState] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Time series of (sim seconds, cpu utilization) samples over the
    #: measurement window — what the paper's time-series hooks record.
    timeline: list = field(default_factory=list)

    @property
    def power_watts(self) -> float:
        if self.steady is None:
            raise ValueError("no steady-state attached to this result")
        return self.steady.power_watts

    def perf_per_watt(self) -> float:
        """Throughput per watt, the Figure 14 metric."""
        return self.throughput_rps / self.power_watts

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "workload": self.workload,
            "sku": self.sku,
            "kernel": self.kernel,
            "throughput_rps": self.throughput_rps,
            "latency": dict(self.latency),
            "cpu_util": self.cpu_util,
            "kernel_util": self.kernel_util,
            "scaling_efficiency": self.scaling_efficiency,
            "extra": dict(self.extra),
            "timeline": [list(point) for point in self.timeline],
        }
        if self.steady is not None:
            out["uarch"] = {
                "ipc_per_physical_core": self.steady.ipc_per_physical_core,
                "l1i_mpki": self.steady.misses.l1i_mpki,
                "llc_mpki": self.steady.misses.llc_mpki,
                "membw_gbps": self.steady.memory_bandwidth_gbps,
                "freq_ghz": self.steady.effective_freq_ghz,
                "tmam": self.steady.tmam.as_dict(),
                "power": self.steady.power.as_dict(),
                "power_watts": self.steady.power_watts,
            }
        return out


class Workload(abc.ABC):
    """A runnable workload model."""

    #: Unique name, e.g. ``"taobench"``.
    name: str = "abstract"
    #: Table 1 category: web / ranking / caching / bigdata / media.
    category: str = "abstract"
    #: What the benchmark's headline number means, e.g. ``"peak RPS"``.
    metric_name: str = "requests/s"

    @property
    @abc.abstractmethod
    def characteristics(self) -> WorkloadCharacteristics:
        """The calibrated characteristics vector."""

    @abc.abstractmethod
    def run(self, config: RunConfig) -> WorkloadResult:
        """Execute the benchmark and report results."""

    def describe(self) -> Dict[str, object]:
        chars = self.characteristics
        return {
            "name": self.name,
            "category": self.category,
            "metric": self.metric_name,
            "instructions_per_request": chars.instructions_per_request,
            "thread_core_ratio": chars.thread_core_ratio,
            "rpc_fanout": chars.rpc_fanout,
            "tax_fraction": chars.tax_profile.tax_fraction,
        }
