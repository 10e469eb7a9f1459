"""One benchmark child: a fresh interpreter that sets up, sweeps and reports.

Run as ``python -m bench.child '<spec json>'`` from the checkout root;
:func:`bench.harness.launch` does this with a cleaned environment.  The
spec names ``workload``, ``seed``, ``mode``, ``repeat``, and for the
``passes`` mode ``passes`` (at most this many) and ``seconds`` (start no
pass that would end later than this after the child started); the
child prints one JSON object as the last line of its standard output.

Every time is taken between readings of the calibration unit and
reported in seconds of the quiet baseline host (:mod:`bench.calib`).

Modes:

* ``setup`` — set up only: import the CLI, build the points, install
  each distinct workload.  ``setup_s`` runs from the first statement
  after the opening calibration to the end of that.
* ``passes`` — set up, then uncached passes: each pass runs
  ``SweepExecutor.run_sweep`` into a new empty run cache.  In-process,
  the pass is cut into segments where ``Benchmark.run`` returns (once
  per point or shard sub-point), each timed between two readings; a
  pool sweep is one segment, read from a thread while it runs.
  ``wall_s`` is the sum over segments of each segment's median over
  passes.  After each pass, batches of cached re-serves of its cache
  give ``cached_wall_s`` (median over every batch).  Peak RSS of this
  process and every pool worker is read; every report is digested.
* ``spans`` — one pass with :class:`bench.layers.Tracer` spans around
  public calls and one re-serve; reports spans, counts and events.
* ``profile`` — set up, then one uncached sweep under cProfile; reports
  self time per layer.
"""

import time

from bench.calib import Calibration, Sampler, normalize

UNIT = Calibration()
READING_AT_START = UNIT.read()
T0 = time.perf_counter()

import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Callable  # noqa: E402

from bench.layers import (  # noqa: E402
    Tracer,
    layer_self_times,
    primitive_calls,
    report_counts,
)
from bench.workloads import WORKLOADS, point_label  # noqa: E402

#: Timed batches of cached re-serves after each pass; the median batch
#: over all passes, divided by its size, is ``cached_wall_s``.  A
#: re-serve takes 1-3 ms.
RESERVE_BATCHES = 8
RESERVE_BATCH = 8
#: Untimed re-serves before them: the first re-serves after a sweep run
#: up to 1.7x slower while the allocator and CPU caches settle.
RESERVE_WARMUP = 10
#: ``passes`` mode runs at least this many passes, whatever the budget.
MIN_PASSES = 3


def report_digest(report) -> str:
    """The golden-test rule: sha256 of the report's sorted JSON."""
    canon = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc`` (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Segments:
    """Calibrated times of the stretches between :meth:`cut` calls.

    Each cut times the stretch since the previous one, runs the
    calibration unit (outside every stretch) and scales the stretch by
    the unit's times at either end and any ``inside`` it.  ``raw`` is
    the host seconds from the first stretch's start to the last cut,
    readings included.
    """

    def __init__(self) -> None:
        self.reading = UNIT.read()
        self.raw = 0.0
        self.times = []
        self._start = self._mark = time.perf_counter()

    def cut(self, inside=()) -> None:
        elapsed = time.perf_counter() - self._mark
        reading = UNIT.read()
        self.raw = time.perf_counter() - self._start
        self.times.append(normalize(elapsed, self.reading, *inside, reading))
        self.reading = reading
        self._mark = time.perf_counter()


def _cut_after_each_run(segments: Segments) -> Callable[[], None]:
    """Cut ``segments`` whenever ``Benchmark.run`` returns; returns the undo.

    In-process, that is once per point or shard sub-point, so no
    segment is longer than one simulation.
    """
    from repro.core.benchmark import Benchmark

    original = Benchmark.run

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            segments.cut()

    Benchmark.run = run

    def undo() -> None:
        Benchmark.run = original

    return undo


def _trace_public_calls(tracer: Tracer, points: list, sink: dict) -> None:
    """Span the public calls each layer is entered through.

    Every name is patched where its caller looks it up: the executor
    calls ``report_to_dict`` through its own module, and ``run_sweep``
    imports ``merge_shard_payloads`` from ``repro.exec.shard`` per call.
    """
    import repro.exec.executor as executor_module
    import repro.exec.shard as shard_module
    import repro.exec.workerpool as pool_module
    from repro.core.benchmark import Benchmark
    from repro.core.hooks import HookRegistry
    from repro.exec.cache import RunCache
    from repro.exec.executor import SweepExecutor
    from repro.exec.workerpool import WarmPool
    from repro.workloads.runner import BenchmarkHarness

    envs = []

    def fold_events(_args) -> None:
        # A point's environments are finished once Benchmark.run returns;
        # folding their event counters here keeps no environment alive.
        sink["events"] += sum(env._seq for env in envs)
        envs.clear()

    for owner, attr, name in (
        (SweepExecutor, "run_sweep", "exec.sweep"),
        (Benchmark, "install", "core.benchmark.install"),
        (HookRegistry, "run_after", "core.hooks.run_after"),
        (executor_module, "report_to_dict", "exec.serialize.encode"),
        (executor_module, "report_from_dict", "exec.serialize.decode"),
        (pool_module, "dict_from_bytes", "exec.serialize.decode"),
        (RunCache, "put", "exec.cache.put"),
        (RunCache, "get", "exec.cache.get"),
        (WarmPool, "run_points", "exec.workerpool.run_points"),
        (shard_module, "merge_shard_payloads", "exec.shard.merge"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(Benchmark, "run", "core.benchmark.run", after=fold_events)
    tracer.wrap(
        BenchmarkHarness,
        "__init__",
        "workloads.harness_init",
        after=lambda args: envs.append(args[0].env),
    )
    classes = {type(Benchmark.by_name(p.workload_name).workload) for p in points}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        tracer.wrap(cls, "run", "workloads.run")


class _Pass:
    """One uncached sweep into a new run cache, cut into timed segments."""

    def __init__(
        self, workload, points: list, labels: list, index: int, keep_reports: bool = False
    ) -> None:
        from repro.exec.cache import RunCache
        from repro.exec.executor import SweepExecutor
        from repro.exec.workerpool import get_warm_pool, shutdown_warm_pool

        self.cache_dir = os.path.join(os.environ["DCPERF_CACHE_DIR"], f"pass{index}")
        self.cache = RunCache(self.cache_dir)
        self.executor = SweepExecutor(max_workers=workload.max_workers, cache=self.cache)
        # A pool sweep is one segment, sampled from a thread while this
        # process waits: calibrating between points would stall dispatch.
        # The pool forks its workers with that thread alive; the thread
        # holds no lock the workers take (it blocks only in its own Event).
        pooled = workload.max_workers > 1
        self.segments = Segments()
        try:
            if pooled:
                with Sampler(UNIT) as sampler:
                    result = self.executor.run_sweep(points)
                    self.segments.cut(sampler.readings)
            else:
                undo = _cut_after_each_run(self.segments)
                try:
                    result = self.executor.run_sweep(points)
                finally:
                    undo()
                self.segments.cut()
        except BaseException:
            shutdown_warm_pool()
            raise
        # Reports are kept only on request, so passes do not add to peak RSS.
        self.digests = dict(zip(labels, map(report_digest, result.reports)))
        self.reports = result.reports if keep_reports else None
        self.stats = result.stats
        # Workers are read before shutdown: each pass spawns its own.
        self.worker_kib = (
            sum(_vm_hwm_kib(pid) for pid in get_warm_pool().worker_pids())
            if pooled else 0
        )
        shutdown_warm_pool()
        self.point_seconds = [
            float(e["seconds"]) for e in self.executor.ledger.by_fingerprint.values()
        ]

    def reserve(self, points: list) -> None:
        """Cached re-serves with no pool alive, as in a second ``dcperf suite``.

        Sets ``cached_digests`` (the first re-serve), ``reserve_times``
        (seconds per re-serve, one per timed batch) and
        ``reserve_executed`` (points a re-serve ran: should be none).
        """
        cached = self.executor.run(points)
        self.cached_digests = dict(zip(self.digests, map(report_digest, cached)))
        self.reserve_executed = self.executor.last_stats.executed
        for _ in range(RESERVE_WARMUP):
            self.executor.run(points)
            self.reserve_executed += self.executor.last_stats.executed
        segments = Segments()
        for _ in range(RESERVE_BATCHES):
            for _ in range(RESERVE_BATCH):
                self.executor.run(points)
                self.reserve_executed += self.executor.last_stats.executed
            segments.cut()
        self.reserve_times = [t / RESERVE_BATCH for t in segments.times]


def _verify(spec: dict, workload, points: list, labels: list) -> dict:
    """Re-run a rotating slice of the grid in-process (untimed).

    The parent compares these digests with the pool's, byte for byte.
    """
    from repro.exec.executor import SweepExecutor

    n = len(points)
    first = (spec["seed"] + spec["repeat"]) * workload.verify_per_repeat
    picked = sorted({(first + i) % n for i in range(workload.verify_per_repeat)})
    local = SweepExecutor(max_workers=1, use_cache=False).run([points[i] for i in picked])
    return {labels[i]: report_digest(r) for i, r in zip(picked, local)}


def _passes(spec: dict, workload, points: list, labels: list) -> dict:
    passes = []
    longest = 0.0
    while len(passes) < spec["passes"]:
        elapsed = time.perf_counter() - T0
        if len(passes) >= MIN_PASSES and elapsed + longest > spec["seconds"]:
            break
        if passes:
            shutil.rmtree(passes[-1].cache_dir, ignore_errors=True)
        start = time.perf_counter()
        one = _Pass(workload, points, labels, len(passes))
        # Re-serves follow every pass, so they sample the whole run.
        one.reserve(points)
        passes.append(one)
        longest = max(longest, time.perf_counter() - start)
    segments = list(zip(*(p.segments.times for p in passes)))
    last = passes[-1]
    first_digests = passes[0].digests
    out = {
        "wall_s": sum(statistics.median(s) for s in segments),
        "digests": first_digests,
        "pass_mismatch": sorted({
            label
            for p in passes[1:]
            for label, digest in p.digests.items()
            if digest != first_digests[label]
        }),
        "recovered": sum(p.stats.recovered for p in passes),
        "point_seconds": last.point_seconds,
        "busy_frac": sum(last.point_seconds)
        / (last.stats.workers * last.segments.raw),
        "cached_wall_s": statistics.median(t for p in passes for t in p.reserve_times),
        "cached_digests": last.cached_digests,
        "reserve_executed": sum(p.reserve_executed for p in passes),
    }
    worker_kib = max(p.worker_kib for p in passes)
    out["rss_mb"] = (worker_kib + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
    if workload.verify_per_repeat:
        out["verify_digests"] = _verify(spec, workload, points, labels)
    return out


def _spans(spec: dict, workload, points: list, labels: list, tracer, sink) -> dict:
    one = _Pass(workload, points, labels, 0, keep_reports=True)
    cached = one.executor.run(points)
    return {
        "wall_s": sum(one.segments.times),
        "digests": one.digests,
        "cached_digests": dict(zip(labels, map(report_digest, cached))),
        "recovered": one.stats.recovered,
        "stats": one.stats.as_dict(),
        "span_totals": tracer.totals(since=sink["setup_end"]),
        "install_s": tracer.totals(until=sink["setup_end"]).get(
            "core.benchmark.install", 0.0
        ),
        "events": sink["events"],
        "counts": report_counts(points, [r.as_dict() for r in one.reports]),
        "cache": {
            "hits": one.cache.hits,
            "misses": one.cache.misses,
            "bytes": one.cache.info().total_bytes,
        },
        "trace": tracer.chrome_trace(f"bench {spec['workload']} seed {spec['seed']}"),
    }


def _profile(workload, points: list) -> dict:
    import cProfile
    import pstats

    import repro
    from repro.exec.executor import SweepExecutor
    from repro.exec.workerpool import shutdown_warm_pool

    executor = SweepExecutor(max_workers=workload.max_workers, use_cache=False)
    profiler = cProfile.Profile()
    # Pool workers are forked from this process: stop profiling in
    # them, their self time is invisible from here anyway.
    os.register_at_fork(after_in_child=profiler.disable)
    before = UNIT.read()
    profiler.enable()
    start = time.perf_counter()
    try:
        executor.run_sweep(points)
    finally:
        profiler.disable()
        shutdown_warm_pool()
    wall = normalize(time.perf_counter() - start, before, UNIT.read())
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    stats = pstats.Stats(profiler).stats
    return {
        "wall_s": wall,
        "layers": layer_self_times(stats, package_dir),
        "calls": {
            "execute": primitive_calls(stats, package_dir, "oskernel.scheduler", "execute"),
            "request": primitive_calls(stats, package_dir, "sim.resources", "request"),
        },
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    tracer = Tracer() if mode == "spans" else None
    sink = {"events": 0}

    import repro.core.cli  # noqa: F401  (the import every dcperf command pays)
    from repro.core.benchmark import Benchmark

    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(repro.core.cli.__file__).startswith(src):
        # An installed copy would be timed instead of this checkout.
        raise SystemExit(f"repro was imported from outside {src}")

    points = workload.points(spec["seed"])
    if tracer is not None:
        _trace_public_calls(tracer, points, sink)
    for name in sorted({p.workload_name for p in points}):
        Benchmark.by_name(name).install()
    sink["setup_end"] = time.perf_counter()
    labels = [point_label(p) for p in points]
    out = {
        "setup_s": normalize(sink["setup_end"] - T0, READING_AT_START, UNIT.read()),
        "env": sorted(k for k in os.environ if k.startswith("DCPERF_")),
        "labels": labels,
    }
    try:
        if mode == "passes":
            out.update(_passes(spec, workload, points, labels))
        elif mode == "spans":
            out.update(_spans(spec, workload, points, labels, tracer, sink))
        elif mode == "profile":
            out.update(_profile(workload, points))
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
