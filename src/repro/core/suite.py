"""Suite orchestration: run all benchmarks, normalize, aggregate.

Reproduces the paper's scoring methodology: each benchmark's metric is
normalized to SKU1 and the suite score is the geometric mean (Section
3.1).  The production score is the power-weighted geomean of the
production counterparts (Section 4.1: "weighted by each workload's
power consumption in our fleet").

Execution goes through :class:`repro.exec.executor.SweepExecutor`:
baseline and target runs are expanded into one deduplicated grid, fan
out over the warm worker pool when the executor has more than one
worker, and are memoized in the persistent run cache.  Every sweep
runs its own SKU1 points, and each benchmark scores against the SKU1
report of that same sweep — so suites with different
``measure_seconds``, kernels or fault scenarios can never
cross-contaminate each other's normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.benchmark import BenchmarkReport
from repro.core.scoring import (
    BASELINE_SKU,
    geometric_mean,
    weighted_geometric_mean,
)
from repro.exec.executor import OnPoint, SweepExecutor
from repro.exec.spec import RunPoint
from repro.workloads.registry import dcperf_benchmarks, llm_serving_benchmarks

#: Fleet power weights per workload category (web dominates Meta's
#: general-purpose fleet; Section 3.2 says the modeled categories are
#: the top power consumers).  The llmbench serving mixes carry the
#: fleet's fastest-growing power share (the paper's §8 future-work
#: category), carved out of the established categories pro rata.
FLEET_POWER_WEIGHTS: Dict[str, float] = {
    "mediawiki": 0.25,
    "djangobench": 0.17,
    "feedsim": 0.17,
    "taobench": 0.13,
    "sparkbench": 0.09,
    "videotranscode": 0.05,
    "storagebench": 0.05,
    "llmbench-chat": 0.05,
    "llmbench-codegen": 0.04,
}


@dataclass
class SuiteReport:
    """Per-benchmark reports plus the aggregate scores."""

    sku: str
    kernel: str
    reports: Dict[str, BenchmarkReport]
    scores: Dict[str, float]
    overall_score: float
    perf_per_watt: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "sku": self.sku,
            "kernel": self.kernel,
            "scores": dict(self.scores),
            "overall_score": self.overall_score,
            "perf_per_watt": dict(self.perf_per_watt),
            "reports": {k: v.as_dict() for k, v in self.reports.items()},
        }


class DCPerfSuite:
    """Runs the whole benchmark suite and scores it against SKU1."""

    def __init__(
        self,
        benchmark_names: Optional[List[str]] = None,
        variant: str = "",
        measure_seconds: float = 1.5,
        executor: Optional[SweepExecutor] = None,
        faults: str = "",
        early_stop: bool = False,
    ) -> None:
        if benchmark_names:
            self.benchmark_names = benchmark_names
        elif variant == ":prod":
            # The llmbench mixes have no production twin; prod suites
            # score the published categories only.
            self.benchmark_names = dcperf_benchmarks()
        else:
            self.benchmark_names = dcperf_benchmarks() + llm_serving_benchmarks()
        #: '' for the DCPerf benchmarks, ':prod' for production twins.
        self.variant = variant
        self.measure_seconds = measure_seconds
        #: Named fault scenario applied to every point, baseline
        #: included — scores then compare SKUs under the same faults,
        #: and fault-free baselines can never cross-contaminate (the
        #: scenario is part of each point's fingerprint).
        self.faults = faults
        #: Convergence-based early termination for every point.  Part
        #: of the run fingerprint, so early-stopped sweeps and
        #: full-window sweeps cache separately and baselines never mix.
        self.early_stop = early_stop
        self.executor = executor or SweepExecutor()

    def _point(self, name: str, sku: str, kernel: str, seed: int) -> RunPoint:
        return RunPoint(
            benchmark=name,
            sku=sku,
            kernel=kernel,
            seed=seed,
            variant=self.variant,
            measure_seconds=self.measure_seconds,
            faults=self.faults,
            early_stop=self.early_stop,
        )

    def run_many(
        self,
        skus: Sequence[str],
        kernel: str = "6.9",
        seed: int = 7,
        on_point: Optional[OnPoint] = None,
    ) -> Dict[str, SuiteReport]:
        """Run and score the suite on several SKUs in one sweep.

        Baseline and per-SKU points are expanded into a single grid so
        a parallel executor can overlap everything; results come back
        deterministically in spec order regardless of worker count.
        ``on_point`` streams each unique point's report as it resolves
        (before scoring), so long suite sweeps can report progress —
        with the warm pool, completions arrive while workers are still
        busy with the rest of the grid.

        Each benchmark's score is its metric divided by the metric of
        the same sweep's SKU1 point; a non-positive baseline or target
        metric raises :class:`ValueError` naming the benchmark.
        """
        skus = list(skus)
        names = self.benchmark_names
        points: List[RunPoint] = [
            self._point(name, BASELINE_SKU, kernel, seed) for name in names
        ]
        for sku in skus:
            points.extend(self._point(name, sku, kernel, seed) for name in names)
        all_reports = self.executor.run(points, on_point=on_point)

        stride = len(names)
        baselines = [report.metric_value for report in all_reports[:stride]]
        out: Dict[str, SuiteReport] = {}
        for index, sku in enumerate(skus):
            chunk = all_reports[stride * (index + 1) : stride * (index + 2)]
            reports: Dict[str, BenchmarkReport] = {}
            scores: Dict[str, float] = {}
            perf_per_watt: Dict[str, float] = {}
            for name, baseline, report in zip(names, baselines, chunk):
                if baseline <= 0 or report.metric_value <= 0:
                    raise ValueError(
                        f"{name!r}: {sku} metric {report.metric_value} and "
                        f"{BASELINE_SKU} baseline {baseline} must be positive"
                    )
                report.score = report.metric_value / baseline
                reports[name] = report
                scores[name] = report.score
                perf_per_watt[name] = report.result.perf_per_watt()
            out[sku] = SuiteReport(
                sku=sku,
                kernel=kernel,
                reports=reports,
                scores=scores,
                overall_score=geometric_mean(scores.values()),
                perf_per_watt=perf_per_watt,
            )
        return out

    def run(
        self,
        sku: str,
        kernel: str = "6.9",
        seed: int = 7,
        on_point: Optional[OnPoint] = None,
    ) -> SuiteReport:
        """Run every benchmark on a SKU and score against the baseline."""
        return self.run_many(
            [sku], kernel=kernel, seed=seed, on_point=on_point
        )[sku]

    def production_score(self, suite_report: SuiteReport) -> float:
        """Power-weighted aggregate (the Figure 2 'Production' method)."""
        return weighted_geometric_mean(suite_report.scores, FLEET_POWER_WEIGHTS)
