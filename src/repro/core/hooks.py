"""Extensible monitoring hooks.

DCPerf is designed as an extensible framework through plugins called
hooks (Section 3.1): each hook observes a benchmark run and contributes
a section to the final report.  ``before_run`` runs ahead of the
benchmark, ``after_run`` receives the finished
:class:`~repro.workloads.base.WorkloadResult` and returns the hook's
report section.  Hooks must not mutate the result.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import HookError
from repro.loadgen.windows import WindowSnapshot
from repro.workloads.base import RunConfig, WorkloadResult


@dataclass
class RunContext:
    """Everything hooks may observe about one benchmark run."""

    benchmark: str
    config: RunConfig
    metadata: Dict[str, object] = field(default_factory=dict)


class Hook(abc.ABC):
    """One monitoring plugin."""

    #: Unique hook name, used as the report-section key.
    name: str = "abstract"

    def before_run(self, ctx: RunContext) -> None:
        """Called before the benchmark starts (default: nothing)."""

    @abc.abstractmethod
    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        """Produce this hook's report section from the finished run."""


class CpuUtilHook(Hook):
    """Total CPU utilization plus user/kernel breakdown (Fig. 9)."""

    name = "cpu_util"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        return {
            "total_pct": result.cpu_util * 100.0,
            "sys_pct": result.kernel_util * 100.0,
            "user_pct": max(0.0, result.cpu_util - result.kernel_util) * 100.0,
        }


class MemStatHook(Hook):
    """Memory footprint estimate from the workload's data set."""

    name = "memstat"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        sku = ctx.config.sku
        if result.steady is None:
            return {"capacity_gb": sku.memory.capacity_gb}
        bw = result.steady.memory_bandwidth_gbps
        return {
            "capacity_gb": sku.memory.capacity_gb,
            "bandwidth_gbps": bw,
            "bandwidth_pct_of_peak": bw / sku.memory.peak_bw_gbps * 100.0,
        }


class NetStatHook(Hook):
    """Network traffic derived from throughput x bytes/request."""

    name = "netstat"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        sku = ctx.config.sku
        # The benchmark's characteristics travel with the workload via
        # the steady state; fall back to zero traffic if absent.
        if result.steady is None:
            return {"nic_gbps": sku.network_gbps}
        rps = result.throughput_rps
        bytes_per_request = ctx.metadata.get("network_bytes_per_request", 0.0)
        gbps = rps * float(bytes_per_request) * 8.0 / 1e9
        return {
            "nic_gbps": sku.network_gbps,
            "traffic_gbps": gbps,
            "nic_util_pct": min(100.0, gbps / sku.network_gbps * 100.0),
        }


class CpuFreqHook(Hook):
    """Effective core frequency (Fig. 11)."""

    name = "cpufreq"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        if result.steady is None:
            raise HookError("cpufreq hook requires a steady state")
        return {
            "effective_ghz": result.steady.effective_freq_ghz,
            "base_ghz": ctx.config.sku.cpu.base_freq_ghz,
            "max_ghz": ctx.config.sku.cpu.max_freq_ghz,
        }


class PowerHook(Hook):
    """Wall power and component breakdown (Fig. 10)."""

    name = "power"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        if result.steady is None:
            raise HookError("power hook requires a steady state")
        breakdown = result.steady.power.as_dict()
        return {
            "watts": result.steady.power_watts,
            "designed_watts": ctx.config.sku.designed_power_w,
            "breakdown_pct": {k: v * 100.0 for k, v in breakdown.items()},
        }


class TopdownHook(Hook):
    """TMAM slot breakdown (Fig. 4/5)."""

    name = "topdown"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        if result.steady is None:
            raise HookError("topdown hook requires a steady state")
        return {k: v * 100.0 for k, v in result.steady.tmam.as_dict().items()}


class UarchHook(Hook):
    """Detailed microarchitecture metrics (Fig. 6/7/8)."""

    name = "uarch"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        if result.steady is None:
            raise HookError("uarch hook requires a steady state")
        steady = result.steady
        return {
            "ipc_per_physical_core": steady.ipc_per_physical_core,
            "l1i_mpki": steady.misses.l1i_mpki,
            "l1d_mpki": steady.misses.l1d_mpki,
            "l2_mpki": steady.misses.l2_mpki,
            "llc_mpki": steady.misses.llc_mpki,
            "membw_gbps": steady.memory_bandwidth_gbps,
            "gips": steady.giga_instructions_per_second,
        }


class TimelineHook(Hook):
    """Time-series CPU utilization over the measurement window.

    The paper's hooks record time-series performance data and the
    CopyMove hook preserves it; this hook summarizes the series and
    exposes the samples for post-analysis.
    """

    name = "timeline"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        samples = list(result.timeline)
        if not samples:
            return {"samples": 0}
        utils = [u for _, u in samples]
        return {
            "samples": len(samples),
            "util_min": min(utils),
            "util_max": max(utils),
            "util_mean": sum(utils) / len(utils),
            "series": [[t, u] for t, u in samples],
        }


class CopyMoveHook(Hook):
    """Preserves run artifacts (result JSON) into a per-run folder."""

    name = "copymove"

    def __init__(self, destination: Optional[str] = None) -> None:
        self.destination = destination
        self.copied: List[str] = []

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        import json
        import os

        if self.destination is None:
            return {"copied": []}
        os.makedirs(self.destination, exist_ok=True)
        path = os.path.join(
            self.destination, f"{ctx.benchmark}-{ctx.config.sku_name}.json"
        )
        with open(path, "w") as fh:
            json.dump(result.as_dict(), fh, indent=2, default=str)
        self.copied.append(path)
        return {"copied": [path]}


class ResilienceHook(Hook):
    """SLO compliance and resilience accounting under fault injection.

    Reads the ``resilience_*`` counters the
    :class:`~repro.workloads.runner.BenchmarkHarness` attaches when a
    run carries a fault scenario.  For fault-free runs the section
    is simply ``{"enabled": False}`` so every report keeps the same
    shape.
    """

    name = "resilience"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        extra = result.extra
        if "resilience_requests" not in extra:
            return {"enabled": False}
        requests = extra.get("resilience_requests", 0.0)
        attempts = extra.get("resilience_attempts", 0.0)
        failures = extra.get("resilience_failures", 0.0)
        goodput = extra.get("resilience_goodput_rps", 0.0)
        throughput = result.throughput_rps
        # Device stall time (an attached IoStatHook device, e.g.
        # StorageBench's block device) is SLO-relevant: seconds the
        # engine spent refusing foreground puts are seconds the node
        # was not meeting its objective, even when the requests that
        # did finish look fast.  Fold it into the goodput accounting
        # instead of leaving it to the iostat section alone.
        stall_seconds = extra.get("io_stall_seconds", 0.0)
        elapsed = extra.get("measured_seconds", ctx.config.measure_seconds)
        stall_fraction = min(1.0, stall_seconds / elapsed) if elapsed > 0 else 0.0
        slo_compliance = extra.get("resilience_slo_compliance", 1.0)
        return {
            "enabled": True,
            "scenario": ctx.config.scenario.name,
            "requests": requests,
            "error_rate": failures / requests if requests else 0.0,
            "retry_amplification": attempts / requests if requests else 1.0,
            "retries": extra.get("resilience_retries", 0.0),
            "timeouts": extra.get("resilience_timeouts", 0.0),
            "hedges": extra.get("resilience_hedges", 0.0),
            "hedge_wins": extra.get("resilience_hedge_wins", 0.0),
            "breaker_rejections": extra.get("resilience_breaker_rejections", 0.0),
            "net_drops": extra.get("resilience_net_drops", 0.0),
            "unavailable": extra.get("resilience_unavailable", 0.0),
            "slo_latency_ms": extra.get("resilience_slo_latency_s", 0.0) * 1000.0,
            "slo_compliance_pct": slo_compliance * 100.0,
            "goodput_rps": goodput,
            "goodput_fraction": goodput / throughput if throughput else 0.0,
            "device_stall_seconds": stall_seconds,
            "stall_fraction_of_window": stall_fraction,
            "stall_adjusted_slo_compliance_pct": (
                slo_compliance * (1.0 - stall_fraction) * 100.0
            ),
            "stall_adjusted_goodput_rps": goodput * (1.0 - stall_fraction),
            "fault_events_applied": extra.get("fault_events_applied", 0.0),
        }


class SloControlHook(Hook):
    """In-run SLO control plane accounting.

    Reads the ``slo_*`` counters the
    :class:`~repro.workloads.runner.BenchmarkHarness` attaches when a
    run's fault scenario carries a
    :class:`~repro.faults.control.SloControlPolicy`: windowed
    percentile signals, shed/admitted counts, admission rejections,
    brownout relief adjustments, and the goodput (completions meeting
    the SLO) those behaviors protect.  Runs without the control plane
    report ``{"enabled": False}`` so every report keeps the same shape.
    """

    name = "slo_control"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        extra = result.extra
        if "slo_windows" not in extra:
            return {"enabled": False}
        offered = extra.get("slo_offered", 0.0)
        shed = extra.get("slo_shed", 0.0)
        section: Dict[str, object] = {
            "enabled": True,
            "scenario": ctx.config.scenario.name,
            "windows": extra.get("slo_windows", 0.0),
            "window_completions": extra.get("slo_window_completions", 0.0),
            "slo_latency_ms": extra.get("slo_latency_s", 0.0) * 1000.0,
            "offered": offered,
            "admitted": extra.get("slo_admitted", 0.0),
            "shed": shed,
            "shed_fraction": shed / offered if offered else 0.0,
            "admission_rejections": extra.get("slo_admission_rejections", 0.0),
            "instances": extra.get("slo_instances", 0.0),
            "breached_windows": extra.get("slo_breached_windows", 0.0),
            "healthy_windows": extra.get("slo_healthy_windows", 0.0),
            "shed_steps": extra.get("slo_shed_steps", 0.0),
            "shed_recoveries": extra.get("slo_shed_recoveries", 0.0),
            "drop_probability": extra.get("slo_drop_probability", 0.0),
            "max_drop_probability": extra.get("slo_max_drop_probability", 0.0),
            "brownout_activations": extra.get("slo_brownout_activations", 0.0),
            "brownout_recoveries": extra.get("slo_brownout_recoveries", 0.0),
            "brownout_steps": extra.get("slo_brownout_steps", 0.0),
            "relief_factor": extra.get("slo_relief_factor", 1.0),
            "goodput_rps": extra.get("slo_goodput_rps", 0.0),
            "goodput_fraction": extra.get("slo_goodput_fraction", 0.0),
            "windowed_p50_ms": extra.get("slo_p50", 0.0) * 1000.0,
            "windowed_p95_ms": extra.get("slo_p95", 0.0) * 1000.0,
            "windowed_p99_ms": extra.get("slo_p99", 0.0) * 1000.0,
            "stall_seconds": extra.get("slo_stall_seconds", 0.0),
            "window_fields": list(WindowSnapshot.ROW_FIELDS),
            "window_series": extra.get("slo_window_series", []),
        }
        # Token-level SLO signals (llmbench): TTFT and inter-token
        # percentiles join the SLO section when the workload reports
        # them, so serving runs are judged at token granularity too.
        if "slo_ttft_p99_s" in extra:
            section["ttft_p50_ms"] = extra.get("slo_ttft_p50_s", 0.0) * 1000.0
            section["ttft_p99_ms"] = extra.get("slo_ttft_p99_s", 0.0) * 1000.0
            section["itl_p99_ms"] = extra.get("slo_itl_p99_s", 0.0) * 1000.0
        return section


class LlmServingHook(Hook):
    """Token-serving engine accounting (llmbench).

    Reads the ``llm_*`` counters the llmbench family attaches to
    ``result.extra``: token throughput, TTFT/inter-token percentiles,
    KV-cache residency and preemption pressure, prefix-cache hit rate,
    and continuous-batching queue depths.  Non-serving workloads report
    ``{"enabled": False}`` so every report keeps the same shape.
    """

    name = "llm_serving"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        extra = result.extra
        if "llm_decoded_tokens" not in extra:
            return {"enabled": False}
        budget = extra.get("llm_kv_budget_bytes", 0.0)
        peak = extra.get("llm_kv_peak_bytes", 0.0)
        prefill = extra.get("llm_prefill_tokens", 0.0)
        cached = extra.get("llm_cached_prefix_tokens", 0.0)
        return {
            "enabled": True,
            "replicas": extra.get("llm_replicas", 0.0),
            "batch_slots": extra.get("llm_batch_slots", 0.0),
            "sessions_started": extra.get("llm_sessions_started", 0.0),
            "turns_submitted": extra.get("llm_turns_submitted", 0.0),
            "turns_completed": extra.get("llm_turns_completed", 0.0),
            "engine_steps": extra.get("llm_engine_steps", 0.0),
            "tokens_per_second": extra.get("llm_tokens_per_second", 0.0),
            "prefill_tokens": prefill,
            "decoded_tokens": extra.get("llm_decoded_tokens", 0.0),
            "prefix_hit_rate": extra.get("llm_prefix_hit_rate", 0.0),
            "prefill_cached_fraction": cached / prefill if prefill else 0.0,
            "ttft_p50_ms": extra.get("llm_ttft_p50_s", 0.0) * 1000.0,
            "ttft_p99_ms": extra.get("llm_ttft_p99_s", 0.0) * 1000.0,
            "itl_p50_ms": extra.get("llm_itl_p50_s", 0.0) * 1000.0,
            "itl_p99_ms": extra.get("llm_itl_p99_s", 0.0) * 1000.0,
            "kv_budget_gb": budget / 1e9,
            "kv_peak_gb": peak / 1e9,
            "kv_peak_util_pct": peak / budget * 100.0 if budget else 0.0,
            "kv_overflow_tokens": extra.get("llm_kv_overflow_tokens", 0.0),
            "preemptions": extra.get("llm_kv_preemptions", 0.0),
            "admission_blocked_steps": extra.get(
                "llm_kv_admission_blocked", 0.0
            ),
            "queue_depth_peak": extra.get("llm_queue_depth_peak", 0.0),
            "queue_depth_end": extra.get("llm_queue_depth_end", 0.0),
        }


class IoStatHook(Hook):
    """Block-device and storage-engine I/O accounting.

    Reads the ``io_*`` counters a device-backed workload (StorageBench)
    attaches to ``result.extra``: device traffic, time-averaged queue
    depth, compaction/flush bytes, and write-stall time.  Workloads
    without a device report ``{"enabled": False}`` so every report
    keeps the same shape.
    """

    name = "iostat"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        extra = result.extra
        if "io_reads" not in extra:
            return {"enabled": False}
        reads = extra.get("io_reads", 0.0)
        writes = extra.get("io_writes", 0.0)
        return {
            "enabled": True,
            "device": ctx.config.sku.storage,
            "reads": reads,
            "writes": writes,
            "read_mb": extra.get("io_read_bytes", 0.0) / 1e6,
            "write_mb": extra.get("io_write_bytes", 0.0) / 1e6,
            "mean_queue_depth": extra.get("io_mean_queue_depth", 0.0),
            "queue_wait_ms_per_op": (
                extra.get("io_queue_wait_s", 0.0) / (reads + writes) * 1000.0
                if reads + writes
                else 0.0
            ),
            "device_util_pct": extra.get("io_device_util", 0.0) * 100.0,
            "compaction_mb": extra.get("io_compaction_bytes", 0.0) / 1e6,
            "compactions": extra.get("io_compactions", 0.0),
            "flushes": extra.get("io_flushes", 0.0),
            "wal_mb": extra.get("io_wal_bytes", 0.0) / 1e6,
            "block_cache_hit_rate": extra.get("io_cache_hit_rate", 0.0),
            "bloom_fp_rate": extra.get("io_bloom_fp_rate", 0.0),
            "stall_seconds": extra.get("io_stall_seconds", 0.0),
            "stall_events": extra.get("io_stall_events", 0.0),
            "stall_p99_ms": extra.get("io_stall_p99_s", 0.0) * 1000.0,
        }


class ShardHook(Hook):
    """Intra-run sharding accounting.

    Reports which role a run played in a sharded execution: a *shard*
    sub-run states its index and derived seed; a *merged* parent report
    surfaces the per-shard breakdown lists the merge attaches to
    ``result.extra`` (:mod:`repro.exec.shard`).  Unsharded runs report
    ``{"enabled": False}`` so every report keeps the same shape.
    """

    name = "sharding"

    def after_run(self, ctx: RunContext, result: WorkloadResult) -> Dict[str, object]:
        config = ctx.config
        if config.shards <= 1:
            return {"enabled": False}
        if config.shard_index >= 0:
            return {
                "enabled": True,
                "role": "shard",
                "shards": config.shards,
                "shard_index": config.shard_index,
                "shard_seed": config.seed,
            }
        extra = result.extra
        return {
            "enabled": True,
            "role": "merged",
            "shards": config.shards,
            "shard_seeds": list(extra.get("shard_seeds", [])),
            "shard_throughput_rps": list(
                extra.get("shard_throughput_rps", [])
            ),
            "shard_completions": list(extra.get("shard_completions", [])),
            "shard_measured_seconds": list(
                extra.get("shard_measured_seconds", [])
            ),
        }


class HookRegistry:
    """Named collection of hooks applied to every run."""

    def __init__(self, hooks: Optional[List[Hook]] = None) -> None:
        self._hooks: Dict[str, Hook] = {}
        for hook in hooks or []:
            self.register(hook)

    def register(self, hook: Hook) -> None:
        if hook.name in self._hooks:
            raise HookError(f"hook {hook.name!r} is already registered")
        self._hooks[hook.name] = hook

    def unregister(self, name: str) -> None:
        if name not in self._hooks:
            raise HookError(f"no hook named {name!r}")
        del self._hooks[name]

    def names(self) -> List[str]:
        return list(self._hooks)

    def run_before(self, ctx: RunContext) -> None:
        for hook in self._hooks.values():
            hook.before_run(ctx)

    def run_after(
        self, ctx: RunContext, result: WorkloadResult
    ) -> Dict[str, Dict[str, object]]:
        """Every hook's report section, keyed by hook name.

        A hook that raises marks its own section as failed instead of
        aborting the run: the benchmark result is already computed by
        the time hooks fire, and losing it to a broken monitoring
        plugin inverts the value hierarchy.
        """
        sections: Dict[str, Dict[str, object]] = {}
        for name, hook in self._hooks.items():
            try:
                sections[name] = hook.after_run(ctx, result)
            except Exception as exc:
                sections[name] = {
                    "hook_failed": True,
                    "error": f"{type(exc).__name__}: {exc}",
                }
        return sections


def default_hooks() -> HookRegistry:
    """The hook set Section 3.1 lists."""
    return HookRegistry(
        [
            CpuUtilHook(),
            MemStatHook(),
            NetStatHook(),
            CpuFreqHook(),
            PowerHook(),
            TopdownHook(),
            UarchHook(),
            TimelineHook(),
            ResilienceHook(),
            SloControlHook(),
            LlmServingHook(),
            IoStatHook(),
            ShardHook(),
        ]
    )
