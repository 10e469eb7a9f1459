"""The four benchmark workloads: which sweep each runs, and on how many workers.

Every workload is a batch sweep from one client: the bench child builds
the whole grid, submits it to one ``SweepExecutor`` and waits.  The
workloads differ in which layers do work (see ``bench/README.md`` for
why each one is here):

* ``suite`` — the 9 scored suite entries on SKU1 and SKU2, in-process.
* ``suite-pool`` — the same 18 points on the 2-worker warm pool.
* ``llm-serving`` — the four llmbench serving mixes on SKU2, in-process.
* ``faults-control`` — six fault/SLO-control scenarios on SKU2, in-process.

Point builders import ``repro`` lazily, so the parent process can read
this table without importing the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: The kernel every point runs on.
KERNEL = "6.9"
SUITE_SKUS = ("SKU1", "SKU2")
LLM_MIXES = ("chat", "codegen", "rag_summarize", "long_reasoning")
#: (benchmark, fault scenario, shards) per ``faults-control`` point.
FAULT_POINTS = (
    ("taobench", "overload_shed", 2),
    ("taobench", "blackout", 1),
    ("storagebench", "flaky_network_compaction", 1),
    ("storagebench", "disk_degraded", 1),
    ("feedsim", "noisy_neighbor", 1),
    ("mediawiki", "flaky_network", 1),
)


def _suite_points(seed: int) -> list:
    from repro.core.suite import DCPerfSuite
    from repro.exec.spec import RunPoint

    # ``dcperf suite`` turns early stop on; the library default is off,
    # so the benchmark passes it explicitly to time what the CLI runs.
    return [
        RunPoint(
            benchmark=name,
            sku=sku,
            kernel=KERNEL,
            seed=seed,
            measure_seconds=1.5,
            warmup_seconds=0.5,
            early_stop=True,
        )
        for sku in SUITE_SKUS
        for name in DCPerfSuite().benchmark_names
    ]


def _llm_points(seed: int) -> list:
    from repro.exec.spec import RunPoint

    return [
        RunPoint(
            benchmark=f"llmbench-{mix}",
            sku="SKU2",
            kernel=KERNEL,
            seed=seed,
            measure_seconds=3.0,
            warmup_seconds=0.5,
            early_stop=False,
        )
        for mix in LLM_MIXES
    ]


def _fault_points(seed: int) -> list:
    from repro.exec.spec import RunPoint

    return [
        RunPoint(
            benchmark=benchmark,
            sku="SKU2",
            kernel=KERNEL,
            seed=seed,
            measure_seconds=1.5,
            warmup_seconds=0.5,
            faults=faults,
            shards=shards,
        )
        for benchmark, faults, shards in FAULT_POINTS
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``SweepExecutor(max_workers=...)``: 1 runs in-process, 2 on the
    #: warm pool (never more workers than ``nproc``, which is 2 on the
    #: machine the baseline was measured on).
    max_workers: int
    points: Callable[[int], list]
    #: Points per repeat re-run in-process after timing, to check the
    #: pool path against the in-process path byte for byte.  The offset
    #: rotates with the seed and the repeat index, so runs cover the grid.
    verify_per_repeat: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("suite", 1, _suite_points),
        Workload("suite-pool", 2, _suite_points, verify_per_repeat=1),
        Workload("llm-serving", 1, _llm_points),
        Workload("faults-control", 1, _fault_points),
    )
}


def point_label(point) -> str:
    """Stable name of a point inside its workload, e.g. ``taobench@SKU2+blackout``."""
    label = f"{point.workload_name}@{point.sku}"
    return f"{label}+{point.faults}" if point.faults else label
