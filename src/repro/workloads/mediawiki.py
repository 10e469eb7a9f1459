"""MediaWiki: the classic-web-application benchmark (models FB web).

Architecture (Section 3.2): Nginx + HHVM serving MediaWiki with MySQL
as the database and Memcached as the cache; Siege drives several
endpoints (a large article page, the edit page, user login, the talk
page).  All components run on one machine; the benchmark pushes CPU
utilization above 90% and measures peak requests/second plus the
latency distribution.

The model: an HHVM-style thread pool (a few threads per logical core),
an endpoint mix with per-endpoint instruction weights, a Memcached
look-up on the page path (real LRU store — repeat page views hit), and
MySQL round trips on misses and writes.
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

#: Endpoint mix: (weight, instruction multiplier, db round trips).
#: The article page dominates, mirroring the Siege scenario's hits on
#: the Barack Obama page; edits are rare but heavy.
ENDPOINTS: Dict[str, Tuple[float, float, int]] = {
    "page": (0.70, 1.00, 1),
    "talk": (0.12, 0.80, 1),
    "login": (0.10, 0.60, 2),
    "edit": (0.08, 2.20, 3),
}
#: MySQL round-trip latency (local instance, warm buffer pool).
DB_LATENCY_MEAN_S = 0.004
#: Page-cache entries (rendered fragments) and capacity.
PAGE_CACHE_BYTES = 4 * 1024 * 1024
PAGE_KEY_SPACE = 2000
#: Rendered-page fragment size (bytes of value per cache entry).
PAGE_FRAGMENT_REPEAT = 256
#: Offered load over capacity: Siege overdrives the server, so the
#: benchmark operates saturated (>90% CPU).
OFFERED_FRACTION = 1.45
#: HHVM worker threads per logical core.
THREADS_PER_CORE = 3


class MediaWiki(Workload):
    """Threaded HHVM web serving at saturation."""

    name = "mediawiki"
    category = "web"
    metric_name = "peak RPS"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["mediawiki"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def _build_handler(self, harness: BenchmarkHarness) -> Handler:
        cores = harness.sku.cpu.logical_cores
        pool = harness.make_pool("hhvm", cores * THREADS_PER_CORE)
        env = harness.env
        instances = InstanceSet(harness)
        serial_frac = self._chars.serial_fraction
        page_cache = MemcachedServer(capacity_bytes=PAGE_CACHE_BYTES)
        # Pre-warm: a production HHVM/Memcached tier runs with a hot
        # page cache; fill until the byte budget is ~full.
        warm_rng = harness.rng.stream("warm")
        for rank in range(1, PAGE_KEY_SPACE + 1):
            if page_cache.cache.used_bytes >= 0.9 * PAGE_CACHE_BYTES:
                break
            endpoint = "page" if warm_rng.random() < 0.8 else "talk"
            key = f"{endpoint}:{rank}"
            page_cache.set(key, b"<html>" + key.encode() * PAGE_FRAGMENT_REPEAT)
        endpoint_rng = harness.rng.stream("endpoints")
        page_rng = harness.rng.stream("pages")
        db_rng = harness.rng.stream("db")
        instr = self._chars.instructions_per_request
        names = list(ENDPOINTS)
        endpoint_mix = WeightedChoice(names, [ENDPOINTS[n][0] for n in names])
        self._endpoint_recorders = {n: LatencyRecorder() for n in names}
        endpoint_recorders = self._endpoint_recorders

        def serve(endpoint: str) -> Generator:
            _, instr_mult, db_trips = ENDPOINTS[endpoint]
            if endpoint in ("page", "talk"):
                key = f"{endpoint}:{page_rng.randint(1, PAGE_KEY_SPACE)}"
                cached = page_cache.get(key)
                if cached is None:
                    # Render from the database and fill the cache.
                    for _ in range(db_trips):
                        yield env.sleep(
                            db_rng.expovariate(1.0 / DB_LATENCY_MEAN_S)
                        )
                    page_cache.set(key, b"<html>" + key.encode() * PAGE_FRAGMENT_REPEAT)
                    yield from harness.burst(instr * instr_mult * 1.4)
                else:
                    yield from harness.burst(instr * instr_mult * 0.9)
            else:
                for _ in range(db_trips):
                    yield env.sleep(db_rng.expovariate(1.0 / DB_LATENCY_MEAN_S))
                yield from harness.burst(instr * instr_mult)

        def handler(request: Request) -> Generator:
            endpoint = endpoint_mix.sample(endpoint_rng)
            instance = instances.pick()
            start = env.now

            def work(e: str = endpoint, i: int = instance) -> Generator:
                # Serialized slice (GC/allocator/master) first, then
                # the parallel render.
                if serial_frac > 0:
                    yield from instances.serial_section(i, instr * serial_frac)
                yield from serve(e)

            yield pool.submit(work)
            endpoint_recorders[endpoint].record(env.now - start)

        self._page_cache = page_cache
        return handler

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        handler = self._build_handler(harness)
        offered = (
            harness.server.capacity_rps() * OFFERED_FRACTION * config.offered_load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)
        stats = self._page_cache.stats()
        result.extra["offered_rps"] = offered
        result.extra["page_cache_hit_rate"] = stats["hit_rate"]
        # Per-endpoint latency distribution (Siege reports per-URL).
        for endpoint, recorder in self._endpoint_recorders.items():
            if len(recorder):
                result.extra[f"p95_{endpoint}_seconds"] = recorder.percentile(95)
        return result
