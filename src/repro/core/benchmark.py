"""Benchmark wrapper: install/run lifecycle + hooked reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.errors import BenchmarkNotFoundError
from repro.core.hooks import HookRegistry, RunContext, default_hooks
from repro.core.report import system_info
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.registry import get_workload


@dataclass
class BenchmarkReport:
    """Everything DCPerf reports for one benchmark run (Section 3.1):
    parameters, application metrics, system info, and hook sections."""

    benchmark: str
    metric_name: str
    metric_value: float
    result: WorkloadResult
    system: Dict[str, object]
    hook_sections: Dict[str, Dict[str, object]] = field(default_factory=dict)
    score: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "metric_name": self.metric_name,
            "metric_value": self.metric_value,
            "score": self.score,
            "system": dict(self.system),
            "result": self.result.as_dict(),
            "hooks": {k: dict(v) for k, v in self.hook_sections.items()},
        }


class Benchmark:
    """A DCPerf benchmark: a workload plus the install/run lifecycle."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._installed = False

    @classmethod
    def by_name(cls, name: str) -> "Benchmark":
        try:
            return cls(get_workload(name))
        except KeyError as exc:
            raise BenchmarkNotFoundError(str(exc)) from exc

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> Dict[str, object]:
        """Prepare the benchmark (the DCPerf ``install`` step).

        For simulated workloads, installation resolves the calibrated
        profile and validates it; data-driven benchmarks additionally
        build their datasets (SparkBench's validation tables).
        """
        description = self.workload.describe()
        if hasattr(self.workload, "validate_query"):
            validation = self.workload.validate_query()
            description["dataset_groups"] = validation.groups
        if hasattr(self.workload, "validate_pipeline"):
            validation = self.workload.validate_pipeline()
            description["pipeline_psnr_db"] = validation.mean_psnr_db
        self._installed = True
        return description

    def run(
        self,
        config: Optional[RunConfig] = None,
        hooks: Optional[HookRegistry] = None,
    ) -> BenchmarkReport:
        """Run the benchmark and assemble the hooked report."""
        config = config or RunConfig()
        if config.shards > 1 and config.shard_index < 0:
            raise ValueError(
                f"shards={config.shards} runs execute through the "
                "SweepExecutor, which expands the run "
                "into shard sub-points and merges their reports; "
                "Benchmark.run only executes single environments"
            )
        hooks = hooks or default_hooks()
        if not self._installed:
            self.install()
        ctx = RunContext(
            benchmark=self.name,
            config=config,
            metadata={
                "network_bytes_per_request": (
                    self.workload.characteristics.network_bytes_per_request
                ),
            },
        )
        hooks.run_before(ctx)
        result = self.workload.run(config)
        sections = hooks.run_after(ctx, result)
        return BenchmarkReport(
            benchmark=self.name,
            metric_name=self.workload.metric_name,
            metric_value=result.throughput_rps,
            result=result,
            system=system_info(config),
            hook_sections=sections,
        )
