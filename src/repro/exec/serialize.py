"""Full-fidelity codecs for benchmark reports: JSON dicts and bytes.

:meth:`BenchmarkReport.as_dict` is a *presentation* format — it
flattens the steady state into a summary and drops fields — so the
cache needs its own lossless encoding.  Python's JSON float handling
round-trips exactly (``repr`` based), which means a report that goes
through this codec is numerically identical to the original; the
executor routes *every* result through it (fresh, pooled, or cached)
so all three paths produce the same objects.

The warm worker pool ships each payload dict over its worker's pipe
as a pickle (:func:`dict_to_bytes` / :func:`dict_from_bytes`).  The
pipe already pickles every message, it connects the parent only to
workers it forked, and a pickle keeps every value and type exactly, so
the pooled payload equals the in-process one.  The run cache stays
JSON: its files sit in a shared directory, where unpickling would run
code.

Shard sub-run payloads additionally carry the recorder's mergeable
state (error count and sorted samples) nested in
``result.extra`` — both codecs transport it losslessly, which is what
makes the shard merge byte-identical across the in-process and
warm-pool execution paths.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict
from typing import TYPE_CHECKING, Dict

from repro.hw.power import PowerBreakdown
from repro.uarch.cache_model import MissProfile
from repro.uarch.projection import SteadyState
from repro.uarch.tmam import TmamProfile
from repro.workloads.base import WorkloadResult

if TYPE_CHECKING:  # deferred: repro.core's __init__ imports repro.exec
    from repro.core.benchmark import BenchmarkReport


def _steady_from_dict(payload: Dict[str, object]) -> SteadyState:
    return SteadyState(
        **{
            **payload,
            "misses": MissProfile(**payload["misses"]),
            "tmam": TmamProfile(**payload["tmam"]),
            "power": PowerBreakdown(**payload["power"]),
        }
    )


def result_to_dict(result: WorkloadResult) -> Dict[str, object]:
    steady = None if result.steady is None else asdict(result.steady)
    return {
        "workload": result.workload,
        "sku": result.sku,
        "kernel": result.kernel,
        "throughput_rps": result.throughput_rps,
        "latency": dict(result.latency),
        "cpu_util": result.cpu_util,
        "kernel_util": result.kernel_util,
        "scaling_efficiency": result.scaling_efficiency,
        "steady": steady,
        "extra": dict(result.extra),
        "timeline": [list(point) for point in result.timeline],
    }


def result_from_dict(payload: Dict[str, object]) -> WorkloadResult:
    steady = payload["steady"]
    return WorkloadResult(
        workload=payload["workload"],
        sku=payload["sku"],
        kernel=payload["kernel"],
        throughput_rps=payload["throughput_rps"],
        latency=dict(payload["latency"]),
        cpu_util=payload["cpu_util"],
        kernel_util=payload["kernel_util"],
        scaling_efficiency=payload["scaling_efficiency"],
        steady=None if steady is None else _steady_from_dict(steady),
        extra=dict(payload["extra"]),
        timeline=[list(point) for point in payload["timeline"]],
    )


def report_to_dict(report: BenchmarkReport) -> Dict[str, object]:
    """Lossless encoding of one report (unlike ``as_dict``)."""
    return {
        "benchmark": report.benchmark,
        "metric_name": report.metric_name,
        "metric_value": report.metric_value,
        "result": result_to_dict(report.result),
        "system": dict(report.system),
        "hooks": {name: dict(sec) for name, sec in report.hook_sections.items()},
        "score": report.score,
    }


def report_from_dict(payload: Dict[str, object]) -> "BenchmarkReport":
    from repro.core.benchmark import BenchmarkReport

    return BenchmarkReport(
        benchmark=payload["benchmark"],
        metric_name=payload["metric_name"],
        metric_value=payload["metric_value"],
        result=result_from_dict(payload["result"]),
        system=dict(payload["system"]),
        hook_sections={n: dict(s) for n, s in payload["hooks"].items()},
        score=payload["score"],
    )


def dict_to_bytes(payload: Dict[str, object]) -> bytes:
    """Pipe encoding of one lossless report payload dict."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def dict_from_bytes(data: bytes) -> Dict[str, object]:
    """Inverse of :func:`dict_to_bytes`; the root must be a dict."""
    value = pickle.loads(data)
    if not isinstance(value, dict):
        raise ValueError("pool payload did not decode to a dict")
    return value
