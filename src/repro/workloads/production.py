"""Production-counterpart workloads.

Each DCPerf benchmark models a production workload ("Cache (prod)",
"Ranking (prod)", ...).  The counterpart runs the *same concurrency
structure* as its benchmark but with the production-calibrated
characteristics vector — the production codebase is orders of magnitude
larger, its datasets bigger, and its platform busier, all of which the
calibrated vectors capture.  Figures 4-12 compare these pairs; Figure 2
aggregates the counterparts into the "Production" line.
"""

from __future__ import annotations

from repro.workloads.base import Workload
from repro.workloads.profiles import BENCHMARK_TO_PRODUCTION, PRODUCTION_PROFILES


def production_workload(benchmark_name: str) -> Workload:
    """The production counterpart of a DCPerf benchmark.

    Returns a workload instance running the benchmark's structure with
    the production profile; its ``name`` is the production workload's
    (e.g. ``cache-prod``).
    """
    try:
        prod_name = BENCHMARK_TO_PRODUCTION[benchmark_name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARK_TO_PRODUCTION))
        raise KeyError(
            f"no production counterpart for {benchmark_name!r}; known: {known}"
        ) from None
    chars = PRODUCTION_PROFILES[prod_name]

    if benchmark_name == "taobench":
        from repro.workloads.taobench import TaoBench

        return TaoBench(chars=chars)
    if benchmark_name == "feedsim":
        from repro.workloads.feedsim import FeedSim

        return FeedSim(chars=chars)
    if benchmark_name == "djangobench":
        from repro.workloads.djangobench import DjangoBench

        return DjangoBench(chars=chars)
    if benchmark_name == "mediawiki":
        from repro.workloads.mediawiki import MediaWiki

        return MediaWiki(chars=chars)
    if benchmark_name == "sparkbench":
        from repro.workloads.sparkbench import SparkBench

        return SparkBench(chars=chars)
    if benchmark_name == "videotranscode":
        from repro.workloads.videotranscode import VideoTranscodeBench

        return VideoTranscodeBench(chars=chars)
    if benchmark_name == "storagebench":
        from repro.workloads.storagebench import StorageBench

        return StorageBench(chars=chars)
    raise KeyError(f"unhandled benchmark {benchmark_name!r}")
