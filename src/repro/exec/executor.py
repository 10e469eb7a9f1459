"""Parallel, cached execution of sweep grids.

:class:`SweepExecutor` is the one path every sweep in the repo goes
through — the suite runner, the CLI, the figure harness, and the
calibration tools.  It guarantees:

* **Determinism** — results are merged back in spec order, and every
  report (fresh, pooled, or cached) is normalized through the same
  JSON codec, so ``max_workers=N`` output is identical to
  ``max_workers=1`` output for the same points.
* **Deduplication** — a grid that names the same point twice (e.g. the
  baseline SKU appearing both as baseline and as target) runs it once.
* **Memoization** — with a cache attached, previously executed points
  are loaded instead of re-run; fingerprints cover model parameters
  and package source, so edits invalidate automatically.

There are two execution paths.  ``max_workers=1`` executes
in-process (no pool, plain stack traces — the debuggable path).
Anything higher fans out over the process-global
:class:`~repro.exec.workerpool.WarmPool` of persistent workers —
repeated sweeps reuse already-warm processes, and each result comes
back pickled over its worker's pipe.  Either way pending points
run longest-first by simulated seconds (:mod:`repro.exec.schedule`).
A pooled point that times out or loses its worker is re-run
in-process.  Each executed point's wall time is kept in memory
(:attr:`SweepExecutor.ledger`); nothing about scheduling persists.

Completions stream: pass ``on_point`` to :meth:`SweepExecutor.run` /
:meth:`~SweepExecutor.run_sweep` to observe each unique point's report
the moment it resolves (cache hit, pooled completion, or in-process
finish) — long sweeps can render and persist incrementally.

A point with ``shards=N`` expands into N shard sub-points that ride
the same dedupe/cache/pool machinery as any other point; after the
sweep drains, each parent's shard payloads merge into one report
(:mod:`repro.exec.shard`).  One run of one benchmark can therefore
use the whole pool, not just one core.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.cache import RunCache, cache_from_env
from repro.exec.schedule import order_lpt
from repro.exec.serialize import report_from_dict, report_to_dict
from repro.exec.spec import RunPoint, run_fingerprint

if TYPE_CHECKING:  # deferred: repro.core's __init__ imports repro.exec
    from repro.core.benchmark import BenchmarkReport

#: Incremental completion callback: ``(point, report)`` per unique point.
OnPoint = Callable[[RunPoint, "BenchmarkReport"], None]

#: cgroup v2 CPU quota file (bind-mounted read-only in containers).
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_cpu_quota(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Whole CPUs allowed by the cgroup v2 quota, or ``None``.

    ``cpu.max`` holds ``"<quota> <period>"`` in microseconds, or
    ``"max ..."`` when unthrottled.  A container throttled to e.g.
    ``150000 100000`` can progress 1.5 CPUs of work per wall second no
    matter how many cores it *sees*; rounding up to 2 keeps a little
    headroom without over-subscribing 16 workers onto 1.5 CPUs.
    """
    try:
        with open(path) as fh:
            parts = fh.read().split()
    except OSError:
        return None
    if not parts or parts[0] == "max":
        return None
    try:
        quota = int(parts[0])
        period = int(parts[1]) if len(parts) > 1 else 100_000
    except ValueError:
        return None
    if quota <= 0 or period <= 0:
        return None
    return max(1, math.ceil(quota / period))


def auto_workers() -> int:
    """Default worker count: one per *usable* CPU, capped at 16.

    ``os.cpu_count()`` reports the host's cores; in a container pinned
    to a subset (cpuset) or throttled by a cgroup quota that number
    over-subscribes the pool — 16 workers timesharing 2 usable CPUs
    thrash instead of parallelizing.  The effective count is the
    scheduling affinity mask (where available) further clamped by the
    cgroup v2 CPU quota.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        # macOS/Windows have no sched_getaffinity; the host count is
        # the best available answer there.
        cpus = os.cpu_count() or 1
    # cgroup v2 is a Linux construct; never probe the pseudo-file
    # elsewhere (a same-named path on another OS would be noise).
    quota = _cgroup_cpu_quota() if sys.platform.startswith("linux") else None
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, min(cpus, 16))


def _run_point_payload(point: RunPoint) -> Dict[str, object]:
    """Execute one point and return its lossless report payload."""
    from repro.core.benchmark import Benchmark

    # Test seam for the per-point timeout path: env vars (unlike
    # monkeypatches) propagate into pool workers.
    delay = os.environ.get("DCPERF_FAULT_POINT_DELAY", "")
    if delay:
        time.sleep(float(delay))
    report = Benchmark.by_name(point.workload_name).run(point.run_config())
    return report_to_dict(report)


def execute_point(point: RunPoint) -> BenchmarkReport:
    """Run one point in-process, normalized through the codec.

    A ``shards=N`` parent point runs its N shard environments serially
    in-process and merges them — the same expansion and merge the
    executor uses, so the report is byte-identical to a pooled run of
    the same point.
    """
    if point.shards > 1 and point.shard_index < 0:
        from repro.exec.shard import expand_shards, merge_shard_payloads

        payloads = [_run_point_payload(sub) for sub in expand_shards(point)]
        return report_from_dict(merge_shard_payloads(point, payloads))
    return report_from_dict(_run_point_payload(point))


@dataclass
class SweepStats:
    """Accounting for one :meth:`SweepExecutor.run` call."""

    total_points: int = 0
    unique_points: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Worker processes the sweep *actually* ran on: 1 for the
    #: in-process path, the effective pool parallelism otherwise
    #: (never more than the number of pool tasks).
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Points that timed out or were lost to a worker crash and were
    #: recovered by re-running in-process.
    recovered: int = 0
    #: Points whose pooled execution exceeded the per-point timeout.
    timeouts: int = 0
    #: Which execution path ran: ``"inproc"`` (no pool) or ``"warm"``
    #: (persistent pool).
    pool_mode: str = "inproc"
    #: Warm-pool accounting for this sweep (zero in-process).
    spawned: int = 0
    reused: int = 0
    respawned: int = 0
    bytes_shipped: int = 0
    #: Shard sub-points scheduled by ``shards=N`` parent points (they
    #: also count toward ``executed``/``workers`` like any point).
    shard_points: int = 0
    #: Parent points whose reports were merged from shard results.
    merged_runs: int = 0
    #: Points a worker took without affinity while an affine worker was
    #: busy: stealing beat idling.
    steals: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class WallTimes:
    """Measured wall seconds per executed point, in memory.

    ``by_fingerprint[fp]["seconds"]`` holds the latest run of each
    point (shard sub-points included) across this executor's sweeps.
    It is the only per-point timing record a sweep keeps; scheduling
    never reads it.
    """

    def __init__(self) -> None:
        self.by_fingerprint: Dict[str, Dict[str, float]] = {}

    def record(self, fingerprint: str, seconds: float) -> None:
        self.by_fingerprint[fingerprint] = {"seconds": seconds}


@dataclass
class SweepResult:
    """Reports in spec order plus the execution accounting."""

    reports: List[BenchmarkReport]
    stats: SweepStats
    fingerprints: List[str] = field(default_factory=list)


class SweepExecutor:
    """Expands, deduplicates, fans out, and merges a sweep grid."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[RunCache] = None,
        use_cache: bool = True,
        point_timeout_s: Optional[float] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be positive, got {point_timeout_s}"
            )
        self.max_workers = max_workers or auto_workers()
        #: Wall-clock budget per pooled point; a straggler past this has
        #: its worker killed and respawned, and is re-run in-process.
        #: ``None`` = no timeout.
        self.point_timeout_s = point_timeout_s
        #: ``None`` disables persistence; by default the environment
        #: decides (``DCPERF_CACHE``/``DCPERF_CACHE_DIR``).
        self.cache = cache if cache is not None else (
            cache_from_env() if use_cache else None
        )
        #: Wall seconds of every point this executor has run.
        self.ledger = WallTimes()
        self.last_stats: Optional[SweepStats] = None
        #: Live progress of the current/most recent sweep (see
        #: :meth:`progress`); ``None`` before the first ``run_sweep``.
        self._progress: Optional[Dict[str, int]] = None

    # -- public API -----------------------------------------------------------
    def run(
        self,
        points: Sequence[RunPoint],
        on_point: Optional[OnPoint] = None,
    ) -> List[BenchmarkReport]:
        """Reports for ``points``, in the same order as ``points``."""
        return self.run_sweep(points, on_point=on_point).reports

    def run_sweep(
        self,
        points: Sequence[RunPoint],
        on_point: Optional[OnPoint] = None,
    ) -> SweepResult:
        from repro.exec.shard import expand_shards, merge_shard_payloads

        started = time.monotonic()
        points = list(points)
        fingerprints = [run_fingerprint(p) for p in points]
        self._progress = {"done": 0, "total": len(set(fingerprints))}

        payloads: Dict[str, Dict[str, object]] = {}
        todo: List[Tuple[str, RunPoint]] = []
        seen = set()
        scheduled = set()
        cache_hits = 0
        shard_point_count = 0
        #: (parent fingerprint, parent point, shard fingerprints) per
        #: un-cached sharded parent; merged after execution.
        shard_jobs: List[Tuple[str, RunPoint, List[str]]] = []

        def probe(fp: str, point: RunPoint) -> bool:
            nonlocal cache_hits
            cached = self.cache.get(fp) if self.cache is not None else None
            if cached is None:
                return False
            payloads[fp] = cached
            cache_hits += 1
            self._notify(on_point, point, cached)
            return True

        for point, fp in zip(points, fingerprints):
            if fp in seen:
                continue
            seen.add(fp)
            if probe(fp, point):
                continue
            if point.shards > 1 and point.shard_index < 0:
                # Expand the parent into shard sub-points: they join
                # the flat todo list, so every execution path (and the
                # per-point cache) treats them like ordinary points.
                subs = expand_shards(point)
                sub_fps = [run_fingerprint(sub) for sub in subs]
                shard_jobs.append((fp, point, sub_fps))
                shard_point_count += len(subs)
                for sub_fp, sub in zip(sub_fps, subs):
                    if sub_fp in scheduled or sub_fp in payloads:
                        continue
                    if probe(sub_fp, sub):
                        continue
                    scheduled.add(sub_fp)
                    todo.append((sub_fp, sub))
            elif fp not in scheduled:
                scheduled.add(fp)
                todo.append((fp, point))

        stats = SweepStats(
            total_points=len(points),
            unique_points=len(seen),
            cache_hits=cache_hits,
            executed=len(todo),
            shard_points=shard_point_count,
        )

        if todo:
            workers = min(self.max_workers, len(todo))
            # Longest-first dispatch.  Results are keyed by fingerprint
            # and merged in spec order below, so only completion order
            # (and the makespan) moves.
            todo = order_lpt(todo)
            inproc = todo
            if workers > 1:
                stats.pool_mode = "warm"
                pooled, inproc, stats.timeouts = self._run_warm(
                    todo, workers, stats, on_point
                )
                payloads.update(pooled)
                # Points lost to a worker crash or to the per-point
                # timeout are re-run in-process — the debuggable path —
                # so one bad point cannot sink a whole sweep.
                stats.recovered = len(inproc)
            for fp, point in inproc:
                t0 = time.monotonic()
                payload = _run_point_payload(point)
                self.ledger.record(fp, time.monotonic() - t0)
                payloads[fp] = self._finish_point(fp, point, payload, on_point)

        # Merge each sharded parent from its (now complete) shard
        # payloads.  The merge is a pure function of the shard results
        # in shard order, so both paths produce the same bytes;
        # the parent payload is cached and streamed like any point.
        for parent_fp, parent_point, sub_fps in shard_jobs:
            merged = merge_shard_payloads(
                parent_point, [payloads[sub_fp] for sub_fp in sub_fps]
            )
            payloads[parent_fp] = self._finish_point(
                parent_fp, parent_point, merged, on_point
            )
        stats.merged_runs = len(shard_jobs)

        # Materialize a fresh report per output position: callers
        # mutate `.score`, so deduplicated positions must not alias.
        reports = [report_from_dict(payloads[fp]) for fp in fingerprints]
        stats.elapsed_seconds = time.monotonic() - started
        self.last_stats = stats
        return SweepResult(
            reports=reports, stats=stats, fingerprints=fingerprints
        )

    # -- internals ------------------------------------------------------------
    def progress(self) -> Optional[Dict[str, int]]:
        """Live ``done``/``total`` unique points of this sweep."""
        if self._progress is None:
            return None
        return dict(self._progress)

    def _notify(
        self,
        on_point: Optional[OnPoint],
        point: RunPoint,
        payload: Dict[str, object],
    ) -> None:
        """Stream one resolved point to the caller, as its own object.

        Shard sub-points are internal framing: callers asked for the
        parent point, so only its merged report streams.
        """
        if point.shard_index < 0 and self._progress is not None:
            self._progress["done"] += 1
        if on_point is not None and point.shard_index < 0:
            on_point(point, report_from_dict(payload))

    def _finish_point(
        self,
        fp: str,
        point: RunPoint,
        payload: Dict[str, object],
        on_point: Optional[OnPoint] = None,
    ) -> Dict[str, object]:
        """Persist one completed point immediately (partial resume).

        Writing per point instead of in bulk after the sweep means a
        killed sweep keeps everything it finished: the restart loads
        those points from the cache and only re-runs the remainder.
        """
        if self.cache is not None:
            self.cache.put(fp, point, payload)
        self._notify(on_point, point, payload)
        return payload

    def _run_warm(
        self,
        todo: Sequence[Tuple[str, RunPoint]],
        workers: int,
        stats: SweepStats,
        on_point: Optional[OnPoint],
    ) -> Tuple[Dict[str, Dict[str, object]], List[Tuple[str, RunPoint]], int]:
        """Fan ``todo`` out over the process-global warm pool.

        Completions stream back as they finish: each one is cached (and
        surfaced through ``on_point``) before the sweep is over, so a
        killed sweep keeps every finished point and long sweeps render
        incrementally.  Each completion's wall time goes to
        :attr:`ledger`.
        """
        from repro.exec.workerpool import get_warm_pool

        pool = get_warm_pool()
        completed, lost, timeouts, run = pool.run_points(
            todo,
            workers=workers,
            timeout_s=self.point_timeout_s,
            on_result=lambda fp, point, payload: self._finish_point(
                fp, point, payload, on_point
            ),
            on_timing=self.ledger.record,
        )
        stats.workers = run.workers
        stats.spawned = run.spawned
        stats.reused = run.reused
        stats.respawned = run.respawned
        stats.bytes_shipped = run.bytes_shipped
        stats.steals = run.steals
        return completed, lost, timeouts
