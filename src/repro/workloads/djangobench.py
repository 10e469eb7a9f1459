"""DjangoBench: the Instagram-style web benchmark.

Architecture (Section 3.2): Python + Django behind UWSGI, which — in
contrast to MediaWiki's threading — uses a *multi-process* model with
one worker process per logical CPU core, the key to scaling Python on
many-core machines.  Apache Cassandra is the database and Memcached the
cache; the load generator visits feed, timeline, seen, and inbox
endpoints.

The model: exactly one single-threaded worker per logical core (a
process can serve one request at a time; no GIL sharing across
requests), per-endpoint instruction weights, Cassandra round trips, and
a Memcached session/object cache.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.cachelib.memcached import MemcachedServer
from repro.loadgen.generators import Handler, Request
from repro.loadgen.recorder import LatencyRecorder
from repro.sim.rng import WeightedChoice
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness, InstanceSet

#: Endpoint mix: (weight, instruction multiplier, cassandra trips).
ENDPOINTS: Dict[str, Tuple[float, float, int]] = {
    "feed": (0.45, 1.40, 2),
    "timeline": (0.25, 1.00, 2),
    "seen": (0.20, 0.30, 1),
    "inbox": (0.10, 0.80, 1),
}
#: Cassandra read latency (replica on another host).
CASSANDRA_LATENCY_MEAN_S = 0.003
#: Object-cache capacity and key space.
OBJECT_CACHE_BYTES = 8 * 1024 * 1024
OBJECT_KEY_SPACE = 5_000
#: UWSGI queues requests ahead of busy workers; the benchmark drives
#: the server to saturation (Figure 9: 95% utilization).
OFFERED_FRACTION = 1.55


class DjangoBench(Workload):
    """Multi-process Django/UWSGI web serving."""

    name = "djangobench"
    category = "web"
    metric_name = "peak RPS"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["djangobench"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def _build_handler(self, harness: BenchmarkHarness) -> Handler:
        cores = harness.sku.cpu.logical_cores
        # The UWSGI architecture: one worker process per logical core,
        # each running two request threads so Cassandra waits overlap.
        pool = harness.make_pool("uwsgi-workers", cores * 2)
        env = harness.env
        instances = InstanceSet(harness)
        serial_frac = self._chars.serial_fraction
        object_cache = MemcachedServer(capacity_bytes=OBJECT_CACHE_BYTES)
        # Pre-warm ~70% of the object key space (steady-state cache).
        for rank in range(1, int(OBJECT_KEY_SPACE * 0.7) + 1):
            key = f"obj:{rank}"
            object_cache.set(key, key.encode() * 32)
        endpoint_rng = harness.rng.stream("endpoints")
        object_rng = harness.rng.stream("objects")
        db_rng = harness.rng.stream("cassandra")
        instr = self._chars.instructions_per_request
        names = list(ENDPOINTS)
        endpoint_mix = WeightedChoice(names, [ENDPOINTS[n][0] for n in names])
        self._endpoint_recorders = {n: LatencyRecorder() for n in names}
        endpoint_recorders = self._endpoint_recorders

        def serve(endpoint: str) -> Generator:
            _, instr_mult, db_trips = ENDPOINTS[endpoint]
            key = f"obj:{object_rng.randint(1, OBJECT_KEY_SPACE)}"
            cached = object_cache.get(key)
            trips = db_trips if cached is None else max(0, db_trips - 1)
            for _ in range(trips):
                yield env.sleep(
                    db_rng.expovariate(1.0 / CASSANDRA_LATENCY_MEAN_S)
                )
            if cached is None:
                object_cache.set(key, key.encode() * 32)
            yield from harness.burst(instr * instr_mult)

        def handler(request: Request) -> Generator:
            endpoint = endpoint_mix.sample(endpoint_rng)
            instance = instances.pick()
            start = env.now

            def work(e: str = endpoint, i: int = instance) -> Generator:
                if serial_frac > 0:
                    yield from instances.serial_section(i, instr * serial_frac)
                yield from serve(e)

            yield pool.submit(work)
            endpoint_recorders[endpoint].record(env.now - start)

        self._object_cache = object_cache
        return handler

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        handler = self._build_handler(harness)
        offered = (
            harness.server.capacity_rps() * OFFERED_FRACTION * config.load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)
        result.extra["offered_rps"] = offered
        result.extra["object_cache_hit_rate"] = self._object_cache.stats()["hit_rate"]
        result.extra["worker_processes"] = float(config.sku.cpu.logical_cores)
        # Per-endpoint latency distribution (feed/timeline/seen/inbox).
        for endpoint, recorder in self._endpoint_recorders.items():
            if len(recorder):
                result.extra[f"p95_{endpoint}_seconds"] = recorder.percentile(95)
        return result
