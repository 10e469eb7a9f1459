"""Intra-run sharding: split one run into N environments, merge results.

A :class:`~repro.exec.spec.RunPoint` with ``shards=N`` is executed as N
statistically-independent *shard environments*: each sub-point carries
``shard_index in [0, N)``, a seed derived from the run seed
(:func:`repro.exec.spec.shard_seed`), and ``1/N`` of the offered rate.
Sub-points are ordinary run points — they ride the same in-process
and warm-pool machinery as any sweep point, carry their own
fingerprints, and cache independently.

The merge (:func:`merge_shard_payloads`) is the load-bearing half:

* **Latency** merges *recorder state*, not summaries — every shard ships
  its full :meth:`~repro.loadgen.recorder.LatencyRecorder.mergeable_state`
  (sorted samples or HDR bucket counts), so the merged percentiles are
  exactly those of the union sample stream.  Workloads that assemble
  results without the harness fall back to a completion-weighted
  summary merge.
* **Counters add** (throughput, I/O traffic, resilience/shed counts,
  fault events): the fleet did the sum of what its shards did.
* **Utilizations and rates average**, weighted by shard completions —
  a shard that served more requests speaks for more of the fleet.
* **SLO window series** align by window index
  (:meth:`~repro.loadgen.windows.WindowedSloTracker.merge_window_series`).

The merge is a pure function of the shard payloads in shard order, and
shard payloads are transported through the lossless report codecs, so a
fixed ``shards=N`` run is byte-identical across the in-process and
warm-pool execution paths.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.exec.spec import RunPoint, shard_seed
from repro.loadgen.recorder import LatencyRecorder
from repro.loadgen.windows import WindowedSloTracker

#: Extra key a shard sub-run uses to ship its recorder state.
SHARD_LATENCY_KEY = "shard_latency"

#: Extras that average (completion-weighted) instead of summing:
#: ratios, utilizations, and per-request shape parameters, where the
#: fleet-level value is "what the average request saw".
_MEAN_KEYS = frozenset(
    {
        "cache_hit_rate",
        "object_cache_hit_rate",
        "page_cache_hit_rate",
        "lsm_hit_rate",
        "dispatches_per_request",
        "wire_bytes_per_response",
        "error_rate",
        "io_mean_queue_depth",
        "io_device_util",
        "io_cache_hit_rate",
        "io_bloom_fp_rate",
        "resilience_slo_compliance",
        "slo_goodput_fraction",
        "slo_drop_probability",
        "slo_relief_factor",
        "slo_p50",
        "slo_p95",
        "slo_p99",
        "slo_p95_seconds",
        "slo_p99_seconds",
        "validation_mean_ctr",
        "llm_prefix_hit_rate",
        "llm_ttft_p50_s",
        "llm_ttft_p99_s",
        "llm_itl_p50_s",
        "llm_itl_p99_s",
        "slo_ttft_p50_s",
        "slo_ttft_p99_s",
        "slo_itl_p99_s",
    }
)

#: Extras where the fleet value is the worst shard's value.
_MAX_KEYS = frozenset(
    {
        "slo_max_drop_probability",
        "io_stall_p99_s",
        "llm_kv_peak_tokens",
        "llm_kv_peak_bytes",
        "llm_queue_depth_peak",
    }
)

#: Extras that are run *parameters* (identical across shards by
#: construction): take the first shard's value.
_FIRST_KEYS = frozenset(
    {
        "resilience_slo_latency_s",
        "slo_latency_s",
        "slo_window_completions",
        "validation_batch",
        "llm_replicas",
        "llm_batch_slots",
        "llm_kv_budget_bytes",
        "llm_kv_bytes_per_token",
    }
)


def expand_shards(point: RunPoint) -> List[RunPoint]:
    """The N shard sub-points of a ``shards=N`` parent point.

    Sub-points differ from the parent only in ``shard_index``; the
    per-shard seed and load split happen in
    :meth:`~repro.exec.spec.RunPoint.run_config`, so the framing stays
    a pure spec transformation.
    """
    if point.shards < 2 or point.shard_index >= 0:
        return [point]
    return [
        dataclasses.replace(point, shard_index=index)
        for index in range(point.shards)
    ]


def _weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    total = sum(weights)
    if total <= 0:
        return sum(values) / len(values) if values else 0.0
    return sum(v * w for v, w in zip(values, weights)) / total


def _shard_weights(results: Sequence[Dict[str, object]]) -> List[float]:
    """Per-shard completion weights (successes + errors), 1.0 fallback."""
    weights = []
    for result in results:
        latency = result["latency"]
        weights.append(
            float(latency.get("count", 0)) + float(latency.get("errors", 0))
        )
    if sum(weights) <= 0:
        return [1.0] * len(results)
    return weights


def _merge_latency(results: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Latency summary of the union sample stream.

    Preferred path: every shard shipped recorder state
    (``extra["shard_latency"]``), so reconstructing and merging the
    recorders gives *exact* union percentiles.  Fallback (workloads
    that assemble results without ``run_open_loop``): counts add, max
    is the max, the remaining stats are count-weighted means of the
    shard summaries.
    """
    states = [r["extra"].get(SHARD_LATENCY_KEY) for r in results]
    if all(state is not None for state in states):
        merged = LatencyRecorder.from_state(states[0])
        for state in states[1:]:
            merged.merge(LatencyRecorder.from_state(state))
        return merged.summary()

    summaries = [dict(r["latency"]) for r in results]
    counts = [float(s.get("count", 0)) for s in summaries]
    errors = sum(int(s.get("errors", 0)) for s in summaries)
    total = sum(counts)
    if total <= 0:
        return {"count": 0, "errors": errors}
    out: Dict[str, object] = {}
    for key in summaries[0]:
        if key == "count":
            out[key] = int(total)
        elif key == "errors":
            out[key] = errors
        elif key == "max":
            out[key] = max(float(s.get(key, 0.0)) for s in summaries)
        else:
            out[key] = _weighted_mean(
                [float(s.get(key, 0.0)) for s in summaries], counts
            )
    return out


def _merge_tree(
    nodes: Sequence[object], weights: Sequence[float]
) -> object:
    """Field-wise weighted mean over a numeric payload tree.

    Dicts merge key-by-key (first node's key order), numbers take the
    completion-weighted mean, and strings/bools/None take the first
    node's value.  Used for the steady state, where every field is a
    fleet-level intensity (utilization, IPC, bandwidth, power) rather
    than a countable total.
    """
    first = nodes[0]
    if first is None:
        return None
    if isinstance(first, dict):
        return {
            key: _merge_tree([node[key] for node in nodes], weights)
            for key in first
        }
    if isinstance(first, bool) or isinstance(first, str):
        return first
    if isinstance(first, (int, float)):
        return _weighted_mean([float(node) for node in nodes], weights)
    return first


def _merge_timeline(
    timelines: Sequence[List[List[float]]],
) -> List[List[float]]:
    """Fleet utilization series: per-index mean across the shards.

    Shard samplers tick on the same simulated cadence, so sample ``i``
    lands at (essentially) the same simulated time in every shard; the
    fleet series averages utilization per index, stamped with shard 0's
    timestamps, truncated to the shortest shard series so every point
    averages over all N shards.
    """
    if not timelines or any(not series for series in timelines):
        return []
    length = min(len(series) for series in timelines)
    n = float(len(timelines))
    return [
        [
            timelines[0][i][0],
            sum(series[i][1] for series in timelines) / n,
        ]
        for i in range(length)
    ]


def _merge_extras(
    point: RunPoint,
    results: Sequence[Dict[str, object]],
    weights: Sequence[float],
) -> Dict[str, object]:
    """Merge ``result.extra`` trees under the documented key policy.

    Defaults to summing (counters, per-second rates, byte totals);
    ratio-like keys average (completion-weighted), worst-case keys take
    the max, and run parameters take the first shard's value.  Special
    keys — the measurement window, convergence accounting, and the SLO
    window series — keep scalar aggregates *and* grow per-shard lists
    so the merged report still answers "what did each shard do".
    """
    extras = [r["extra"] for r in results]
    key_order: List[str] = []
    for extra in extras:
        for key in extra:
            if key not in key_order:
                key_order.append(key)

    merged: Dict[str, object] = {}
    for key in key_order:
        values = [extra[key] for extra in extras if key in extra]
        if key == SHARD_LATENCY_KEY:
            continue  # consumed by the latency merge
        if key == "measured_seconds":
            # The fleet measured until its slowest shard finished.
            merged[key] = max(float(v) for v in values)
            merged["shard_measured_seconds"] = [float(v) for v in values]
        elif key == "early_stopped":
            merged[key] = 1.0 if all(float(v) == 1.0 for v in values) else 0.0
            merged["shard_early_stopped"] = [float(v) for v in values]
        elif key == "convergence_windows":
            merged[key] = float(sum(float(v) for v in values))
            merged["shard_convergence_windows"] = [float(v) for v in values]
        elif key == "slo_window_series":
            series = WindowedSloTracker.merge_window_series(list(values))
            merged[key] = series
            merged["slo_windows"] = float(len(series))
        elif key == "slo_windows":
            merged.setdefault(key, float(sum(float(v) for v in values)))
        elif key in _FIRST_KEYS:
            merged[key] = values[0]
        elif key in _MAX_KEYS:
            merged[key] = max(float(v) for v in values)
        elif key in _MEAN_KEYS:
            merged[key] = _weighted_mean([float(v) for v in values], weights)
        else:
            merged[key] = float(sum(float(v) for v in values))

    merged["shards"] = float(point.shards)
    merged["shard_seeds"] = [
        shard_seed(point.seed, index) for index in range(point.shards)
    ]
    merged["shard_throughput_rps"] = [
        float(r["throughput_rps"]) for r in results
    ]
    merged["shard_completions"] = [float(w) for w in weights]
    return merged


def merge_shard_payloads(
    point: RunPoint, payloads: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """One merged report payload from the N shard report payloads.

    ``point`` is the parent (``shard_index == -1``) run point;
    ``payloads`` are the lossless report dicts of its shards, in shard
    order.  Hook sections are *recomputed* from the merged result under
    the parent's config — the same registry and context
    :meth:`~repro.core.benchmark.Benchmark.run` uses — so the merged
    report has exactly the shape of an unsharded report plus the
    ``sharding`` section's merged view.
    """
    from repro.core.hooks import RunContext, default_hooks
    from repro.core.report import system_info
    from repro.workloads.registry import get_workload

    if len(payloads) != point.shards or point.shards < 2:
        raise ValueError(
            f"expected {point.shards} shard payloads for {point.workload_name}, "
            f"got {len(payloads)}"
        )
    results = [payload["result"] for payload in payloads]
    weights = _shard_weights(results)
    config = point.run_config()

    merged_result_payload: Dict[str, object] = {
        "workload": results[0]["workload"],
        "sku": results[0]["sku"],
        "kernel": results[0]["kernel"],
        "throughput_rps": float(sum(r["throughput_rps"] for r in results)),
        "latency": _merge_latency(results),
        "cpu_util": _weighted_mean([r["cpu_util"] for r in results], weights),
        "kernel_util": _weighted_mean(
            [r["kernel_util"] for r in results], weights
        ),
        "scaling_efficiency": _weighted_mean(
            [r["scaling_efficiency"] for r in results], weights
        ),
        "steady": _merge_tree([r["steady"] for r in results], weights),
        "extra": _merge_extras(point, results, weights),
        "timeline": _merge_timeline([r["timeline"] for r in results]),
    }

    from repro.exec.serialize import result_from_dict, result_to_dict

    merged_result = result_from_dict(merged_result_payload)
    workload = get_workload(point.workload_name)
    ctx = RunContext(
        benchmark=payloads[0]["benchmark"],
        config=config,
        metadata={
            "network_bytes_per_request": (
                workload.characteristics.network_bytes_per_request
            ),
        },
    )
    sections = default_hooks().run_after(ctx, merged_result)
    return {
        "benchmark": payloads[0]["benchmark"],
        "metric_name": payloads[0]["metric_name"],
        "metric_value": merged_result.throughput_rps,
        "result": result_to_dict(merged_result),
        "system": system_info(config),
        "hooks": {name: dict(section) for name, section in sections.items()},
        "score": None,
    }
