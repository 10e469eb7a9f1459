"""Per-layer numbers, measured from outside the program.

Three sources, none of them inside ``src/``:

* **Profile** — cProfile over the uncached sweep.  Self time is grouped
  by ``repro`` module into the layers below.  Time in code outside
  ``repro`` (builtins, the standard library) is charged to the ``repro``
  functions that called it, in proportion to the time each caller
  accounts for, so there is no "builtin" bucket.
* **Spans** — ``perf_counter`` spans around public calls, patched where
  the caller looks the name up and restored afterwards (:class:`Tracer`).
* **Counts** — exact work counts read from the reports, ``SweepStats``,
  the cost ledger and the run cache.

:data:`MOVES` names, for every per-layer metric, the end-to-end metric
and workloads it should move; ``bench/README.md`` explains the map.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.workloads import WORKLOADS

ALL = tuple(WORKLOADS)

#: ``repro`` module prefix -> profile layer (longest prefix wins).
LAYER_PREFIXES = {
    "sim.engine": "sim.engine",
    "sim.events": "sim.engine",
    "sim.resources": "sim.resources",
    "sim.rng": "sim.rng",
    "oskernel.scheduler": "oskernel.scheduler",
    "loadgen.recorder": "loadgen.recorder",
    "loadgen.windows": "loadgen.windows",
    "loadgen.generators": "loadgen.generators",
    "llm.engine": "llm.engine",
    "cachelib": "cachelib",
    "storage": "storage",
    "hw.blockdev": "storage",
    "faults": "faults",
    "workloads": "workloads",
    "uarch": "uarch",
    "core.hooks": "core.hooks",
    "exec": "exec",
}
#: Every other module (hw, data, rpc, core outside hooks, ...).
OTHER = "other"

_MODEL = ("llm-serving", "suite")
_FAULTY = ("faults-control", "suite")

#: Layer -> ((end-to-end metric, workloads it should move it on), ...).
LAYER_MOVES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "sim.engine": (("wall_s", ALL),),
    "sim.resources": (("wall_s", _MODEL),),
    "sim.rng": (("wall_s", _FAULTY),),
    "oskernel.scheduler": (("wall_s", _MODEL),),
    "loadgen.recorder": (("wall_s", _MODEL),),
    "loadgen.windows": (("wall_s", ("faults-control",)),),
    "loadgen.generators": (("wall_s", _FAULTY),),
    "llm.engine": (("wall_s", _MODEL),),
    "cachelib": (("wall_s", _FAULTY),),
    "storage": (("wall_s", _FAULTY),),
    "faults": (("wall_s", ("faults-control",)),),
    "workloads": (("wall_s", ALL),),
    "uarch": (("wall_s", ("suite",)),),
    "core.hooks": (("wall_s", ("suite",)),),
    "exec": (("wall_s", ("suite-pool",)), ("cached_wall_s", ALL)),
    OTHER: (("wall_s", ("suite",)),),
}
LAYERS = tuple(LAYER_MOVES)

_POOL = (("wall_s", ("suite-pool",)),)
_CACHED = (("cached_wall_s", ALL),)
_WALL = (("wall_s", ALL),)

#: Every per-layer metric -> what it should move.  ``BENCHMARK.json``
#: holds the same names with their units; a test keeps the two equal.
MOVES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    **{f"{layer}.self_s": moves for layer, moves in LAYER_MOVES.items()},
    **{f"{layer}.self_share": moves for layer, moves in LAYER_MOVES.items()},
    "profile.coverage": _WALL,
    "traced_overhead": _WALL,
    "core.benchmark.install_s": (("setup_s", ALL),),
    "workloads.run_s": _WALL,
    "workloads.point_s_p50": _WALL,
    "workloads.point_s_max": _WALL,
    "core.hooks.run_after_s": (("wall_s", ("suite",)),),
    "exec.serialize.encode_s": _POOL + _CACHED,
    "exec.serialize.decode_s": _POOL + _CACHED,
    "exec.cache.put_s": _WALL,
    "exec.cache.get_s": _CACHED,
    "exec.workerpool.run_points_s": _POOL,
    "exec.shard.merge_s": (("wall_s", ("faults-control",)),),
    "sim.engine.events": _WALL,
    "sim.engine.events_per_s": _WALL,
    "oskernel.scheduler.execute_calls": (("wall_s", _MODEL),),
    "sim.resources.request_calls": (("wall_s", _MODEL),),
    "loadgen.recorder.samples": _WALL,
    "llm.engine.steps": (("wall_s", _MODEL),),
    "llm.engine.decoded_tokens": (("wall_s", _MODEL),),
    "llm.engine.prefill_tokens": (("wall_s", _MODEL),),
    "llm.engine.preemptions": (("wall_s", _MODEL),),
    "llm.engine.prefix_hit_rate": (("wall_s", _MODEL),),
    "llm.engine.tokens_per_s": (("wall_s", _MODEL),),
    "cachelib.hit_rate": (("wall_s", _FAULTY),),
    "storage.compactions": (("wall_s", _FAULTY),),
    "storage.bloom_fp_rate": (("wall_s", _FAULTY),),
    "faults.resilience.retry_amplification": (("wall_s", ("faults-control",)),),
    "faults.control.shed_fraction": (("wall_s", ("faults-control",)),),
    "workloads.runner.early_stopped_frac": (("wall_s", ("suite", "suite-pool")),),
    "workloads.runner.measured_sim_s": _WALL,
    "exec.cache.hits": _CACHED,
    "exec.cache.misses": _WALL,
    "exec.cache.bytes": _WALL + _CACHED,
    "exec.workerpool.spawned": _POOL,
    "exec.workerpool.reused": _POOL,
    "exec.workerpool.respawned": _POOL,
    "exec.workerpool.steals": _POOL,
    "exec.workerpool.bytes_shipped": _POOL,
    "exec.workerpool.busy_frac": _POOL,
    "exec.shard.merged_runs": (("wall_s", ("faults-control",)),),
}

#: Extras that carry a cachelib hit rate, by the workload that emits them.
CACHE_HIT_KEYS = (
    "cache_hit_rate",
    "page_cache_hit_rate",
    "object_cache_hit_rate",
    "io_cache_hit_rate",
)


def layer_of_module(module: str) -> str:
    """Layer of a ``repro``-relative module name such as ``sim.engine``."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return OTHER


# -- profile -------------------------------------------------------------------


def _module_of(func: tuple, package_dir: str) -> Optional[str]:
    """``sim.engine`` for a pstats key in ``repro``, ``None`` elsewhere."""
    filename = func[0]
    if not filename.startswith(package_dir + os.sep):
        return None
    rel = os.path.relpath(filename, package_dir)
    return os.path.splitext(rel)[0].replace(os.sep, ".")


def layer_self_times(stats: dict, package_dir: str) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A function outside ``package_dir`` passes its self time to its
    callers, split by the self time each caller's calls account for
    (the caller entry's ``tt``), until it reaches ``repro`` code.
    Recursion among non-``repro`` functions is cut at the first repeat.
    Time with no ``repro`` caller at all goes to :data:`OTHER`.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def share(func: tuple, visiting: frozenset) -> Dict[str, float]:
        module = _module_of(func, package_dir)
        if module is not None:
            return {layer_of_module(module): 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        visiting = visiting | {func}
        weights = {c: e[2] for c, e in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            # Calls too short for the clock: split by call count instead.
            weights = {c: e[0] for c, e in callers.items() if c not in visiting}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0:
            out[OTHER] = 1.0
        else:
            for caller, weight in weights.items():
                for layer, frac in share(caller, visiting).items():
                    out[layer] = out.get(layer, 0.0) + frac * weight / total
        if len(weights) == len(callers):  # no caller cut: safe to reuse
            memo[func] = out
        return out

    times = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        for layer, frac in share(func, frozenset()).items():
            times[layer] += tt * frac
    return times


def primitive_calls(stats: dict, package_dir: str, module: str, name: str) -> int:
    """Primitive call count of ``repro.<module>`` functions named ``name``."""
    return sum(
        entry[0]
        for func, entry in stats.items()
        if func[2] == name and _module_of(func, package_dir) == module
    )


# -- spans ---------------------------------------------------------------------


class Tracer:
    """``perf_counter`` spans around patched public calls.

    Each :meth:`wrap` replaces a name where its caller looks it up (a
    module attribute or a class attribute) and :meth:`restore` puts every
    original back.  A span that opens inside a span of the same name is
    marked nested, so totals count each call once.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: (name, start, end, nested) per finished call.
        self.spans: List[Tuple[str, float, float, bool]] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Span every call of ``owner.attr``; ``after(args)`` runs on success."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            depth = tracer._open.get(name, 0)
            tracer._open[name] = depth + 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.spans.append((name, start, time.perf_counter(), depth > 0))
                tracer._open[name] = depth
            if after is not None:
                after(args)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def totals(self, since: float = 0.0, until: float = float("inf")) -> Dict[str, float]:
        """Seconds per span name over outermost calls starting in [since, until)."""
        out: Dict[str, float] = {}
        for name, start, end, nested in self.spans:
            if not nested and since <= start < until:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def chrome_trace(self, process_name: str) -> Dict[str, object]:
        """Chrome trace-event JSON (opens in Perfetto)."""
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}},
        ]
        for name, start, end, _nested in sorted(
            self.spans, key=lambda s: (s[1], -(s[2] - s[1]))
        ):
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- counts --------------------------------------------------------------------


def report_counts(points: Sequence, reports: Sequence[dict]) -> Dict[str, float]:
    """Exact work counts and ratios read from report dicts."""
    extras = [r["result"]["extra"] for r in reports]

    def total(key: str) -> float:
        return float(sum(e.get(key, 0.0) for e in extras))

    def ratio(num: str, den: str) -> float:
        d = total(den)
        return total(num) / d if d else 0.0

    def mean_of(keys: Sequence[str]) -> float:
        values = [e[k] for e in extras for k in keys if k in e]
        return sum(values) / len(values) if values else 0.0

    return {
        "loadgen.recorder.samples": float(
            sum(r["result"]["latency"].get("count", 0) for r in reports)
        ),
        "llm.engine.steps": total("llm_engine_steps"),
        "llm.engine.decoded_tokens": total("llm_decoded_tokens"),
        "llm.engine.prefill_tokens": total("llm_prefill_tokens"),
        "llm.engine.preemptions": total("llm_kv_preemptions"),
        "llm.engine.prefix_hit_rate": mean_of(("llm_prefix_hit_rate",)),
        "cachelib.hit_rate": mean_of(CACHE_HIT_KEYS),
        "storage.compactions": total("io_compactions"),
        "storage.bloom_fp_rate": mean_of(("io_bloom_fp_rate",)),
        "faults.resilience.retry_amplification": ratio(
            "resilience_attempts", "resilience_requests"
        ),
        "faults.control.shed_fraction": ratio("slo_shed", "slo_offered"),
        "workloads.runner.early_stopped_frac": total("early_stopped") / len(extras),
        "workloads.runner.measured_sim_s": float(
            sum(
                e.get("measured_seconds", p.measure_seconds)
                for p, e in zip(points, extras)
            )
        ),
    }


# -- assembly (parent side) ----------------------------------------------------


def per_layer_metrics(base: dict, spans: dict, profile: dict) -> Dict[str, float]:
    """Every :data:`MOVES` metric from the three children of a traced run.

    ``base`` holds the untraced numbers (``wall_s``, ``busy_frac``,
    ``point_s_p50``, ``point_s_max``); ``spans`` and ``profile`` are the
    outputs of the spans child and the profile child.
    """
    layers = profile["layers"]
    profiled = sum(layers.values())
    wall = base["wall_s"]
    span = spans["span_totals"]
    stats = spans["stats"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]
        metrics[f"{layer}.self_share"] = layers[layer] / profiled if profiled else 0.0
    metrics.update({
        "profile.coverage": 1.0 - (layers[OTHER] / profiled if profiled else 0.0),
        "traced_overhead": profile["wall_s"] / wall,
        "core.benchmark.install_s": spans["install_s"],
        "workloads.run_s": span.get("workloads.run", 0.0),
        "workloads.point_s_p50": base["point_s_p50"],
        "workloads.point_s_max": base["point_s_max"],
        "core.hooks.run_after_s": span.get("core.hooks.run_after", 0.0),
        "exec.serialize.encode_s": span.get("exec.serialize.encode", 0.0),
        "exec.serialize.decode_s": span.get("exec.serialize.decode", 0.0),
        "exec.cache.put_s": span.get("exec.cache.put", 0.0),
        "exec.cache.get_s": span.get("exec.cache.get", 0.0),
        "exec.workerpool.run_points_s": span.get("exec.workerpool.run_points", 0.0),
        "exec.shard.merge_s": span.get("exec.shard.merge", 0.0),
        "sim.engine.events": float(spans["events"]),
        "sim.engine.events_per_s": spans["events"] / wall,
        "oskernel.scheduler.execute_calls": float(profile["calls"]["execute"]),
        "sim.resources.request_calls": float(profile["calls"]["request"]),
        "llm.engine.tokens_per_s": spans["counts"]["llm.engine.decoded_tokens"] / wall,
        "exec.cache.hits": float(spans["cache"]["hits"]),
        "exec.cache.misses": float(spans["cache"]["misses"]),
        "exec.cache.bytes": float(spans["cache"]["bytes"]),
        "exec.workerpool.spawned": float(stats["spawned"]),
        "exec.workerpool.reused": float(stats["reused"]),
        "exec.workerpool.respawned": float(stats["respawned"]),
        "exec.workerpool.steals": float(stats["steals"]),
        "exec.workerpool.bytes_shipped": float(stats["bytes_shipped"]),
        "exec.workerpool.busy_frac": base["busy_frac"],
        "exec.shard.merged_runs": float(stats["merged_runs"]),
    })
    metrics.update(spans["counts"])
    return metrics
