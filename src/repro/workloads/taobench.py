"""TaoBench: the TAO-style read-through in-memory cache benchmark.

Architecture (Section 3.2): a Memcached-based server whose requests are
dispatched to *fast* threads on cache hits (return the object) and to
*slow* threads on misses (simulate backend database lookup, create the
object, insert it with SET).  Object sizes, hit rates, and network
throughput are modeled after the TAO production workload.

This model runs a real :class:`~repro.cachelib.readthrough.ReadThroughCache`
over a real LRU store — hit rates emerge from Zipf key popularity vs
cache capacity, not from a configured constant — and dispatches to fast
and slow :class:`~repro.workloads.runner.ThreadPool` instances on a
simulated server.  Because TAO serves ~1M requests/s per server, one
simulated request stands for :data:`BATCH` production requests; the
scheduler is charged the full production dispatch rate, which is what
makes the Section 5.3 kernel-contention case study (Figure 16)
reproducible here.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Generator, Optional, Tuple

from repro.cachelib.memcached import MemcachedServer, check_key
from repro.cachelib.readthrough import ReadThroughCache
from repro.rpc.structs import ThriftField, ThriftStruct
from repro.loadgen.generators import Request
from repro.sim.rng import ZipfSampler, lognormal_sampler
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness

#: Key popularity follows a Zipf law, as measured for TAO.
KEY_SPACE = 200_000
ZIPF_SKEW = 0.99
#: Object sizes: lognormal around TAO's small-object regime.
MEAN_OBJECT_BYTES = 150.0
OBJECT_SIZE_CV = 1.2
#: Cache sized so the steady-state hit rate lands in TAO's ~0.9 regime.
CACHE_CAPACITY_BYTES = 8 * 1024 * 1024
#: Simulated backend (database) latency on the miss path.
BACKEND_LATENCY_MEAN_S = 0.001
#: Instruction split: the miss path creates the object and inserts it.
HIT_INSTR_FRACTION = 0.85
MISS_INSTR_MULTIPLIER = 2.2
#: Production-side scheduling events per request (dispatch + wakeups).
DISPATCHES_PER_HIT = 1
DISPATCHES_PER_MISS = 3
#: TAO is read-dominated; a small write fraction invalidates cached
#: objects (write-invalidate, not write-through), creating the misses
#: the slow path then refills.
WRITE_FRACTION = 0.01
#: Batching: one simulated request = 200 production requests.
BATCH = 200
#: Offered load relative to unimpeded capacity (TAO servers run at
#: ~80-86% CPU, not saturation — Table 1 / Figure 9).
OFFERED_FRACTION = 0.92


def object_value(key: str, size_draw: float) -> bytes:
    """The object the backend returns for ``key``, sized by one draw."""
    size = int(max(16, min(4096, size_draw)))
    return key.encode("utf-8").ljust(size, b"x")[:size]


@lru_cache(maxsize=4)
def warm_fill(
    key_space: int,
    capacity_bytes: int,
    mean_bytes: float,
    cv: float,
    size_state: tuple,
) -> Tuple[Tuple[Tuple[str, bytes], ...], tuple]:
    """The pre-warm fill and the size stream's state after it.

    Production caches run warm, so the benchmark fills the cache with
    the most popular keys, in rank order, until the byte budget is
    ~full; the measured hit rate then reflects steady state rather than
    a cold start.  Each value is sized by one draw from the size stream
    entering at ``size_state``, as ``backend_fetch`` sizes it, and the
    budget sums value lengths as :attr:`LruCache.used_bytes` does.  In
    an 8 MiB budget no value (at most 4 KiB) outgrows the 3% headroom,
    so the fill evicts nothing.

    The fill is pure in its arguments, so repeat runs (sweeps, best-of-N
    benches, repeated suite points in one process) share one fill
    instead of re-drawing ~50k object sizes.  Values are immutable
    bytes, safe to share; each run loads them into a fresh cache.  The
    keys pass :func:`check_key` here, once per distinct fill.
    """
    rng = random.Random()
    rng.setstate(size_state)
    sampler = lognormal_sampler(mean_bytes, cv)
    items = []
    used = 0
    rank = 1
    while used < 0.97 * capacity_bytes and rank <= key_space:
        key = f"tao:{rank}"
        check_key(key)
        value = object_value(key, sampler.sample(rng))
        items.append((key, value))
        used += len(value)
        rank += 1
    return tuple(items), rng.getstate()


class TaoBench(Workload):
    """Read-through cache benchmark with fast/slow thread pools."""

    name = "taobench"
    category = "caching"
    metric_name = "peak RPS and cache hit rate"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["taobench"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars, batch=BATCH)
        env = harness.env
        cores = config.sku.cpu.logical_cores

        # Thread pools: thread-to-core ratio N(10) split across pools.
        fast_pool = harness.make_pool("fast", max(2, cores * 4))
        slow_pool = harness.make_pool("slow", max(2, cores * 4))

        # The real cache: keys sampled Zipf, objects sized lognormal.
        server = MemcachedServer(capacity_bytes=CACHE_CAPACITY_BYTES)
        size_rng = harness.rng.stream("object-sizes")
        size_sampler = lognormal_sampler(MEAN_OBJECT_BYTES, OBJECT_SIZE_CV)

        def backend_fetch(key: str) -> bytes:
            return object_value(key, size_sampler.sample(size_rng))

        cache = ReadThroughCache(server, backend_fetch)
        zipf = ZipfSampler(KEY_SPACE, ZIPF_SKEW)
        items, size_state = warm_fill(
            KEY_SPACE,
            CACHE_CAPACITY_BYTES,
            MEAN_OBJECT_BYTES,
            OBJECT_SIZE_CV,
            size_rng.getstate(),
        )
        server.warm(items)
        size_rng.setstate(size_state)

        key_rng = harness.rng.stream("keys")
        backend_rng = harness.rng.stream("backend")
        instr = self._chars.instructions_per_request
        hit_instr = instr * HIT_INSTR_FRACTION
        miss_instr = instr * MISS_INSTR_MULTIPLIER

        write_rng = harness.rng.stream("writes")
        writes = [0]

        def handler(request: Request) -> Generator:
            key = f"tao:{zipf.sample(key_rng)}"
            if write_rng.random() < WRITE_FRACTION:
                # Write path: update the backend, invalidate the cached
                # object (TAO's write-invalidate), burn the write cost.
                writes[0] += 1
                cache.invalidate(key)
                yield slow_pool.submit(
                    lambda: harness.burst(
                        miss_instr, dispatches_per_request=DISPATCHES_PER_MISS
                    )
                )
                return
            if server.get(key) is not None:
                # Fast path: serve the cached object.
                cache.stats.fast_path += 1
                done = fast_pool.submit(
                    lambda: harness.burst(hit_instr)
                )
                yield done
            else:
                # Slow path: dispatch to a slow thread, wait on the
                # backend, create and insert the object.
                cache.stats.slow_path += 1

                def slow_work() -> Generator:
                    yield env.sleep(
                        backend_rng.expovariate(1.0 / BACKEND_LATENCY_MEAN_S)
                    )
                    fetched = backend_fetch(key)
                    server.set(key, fetched)
                    yield from harness.burst(
                        miss_instr,
                        dispatches_per_request=DISPATCHES_PER_MISS - 1,
                    )

                yield slow_pool.submit(slow_work)

        offered = (
            harness.server.capacity_rps() * OFFERED_FRACTION * config.load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)
        result.extra["cache_hit_rate"] = cache.stats.hit_rate
        result.extra["cache_items"] = float(len(server.cache))
        result.extra["offered_rps"] = offered
        result.extra["dispatches_per_request"] = (
            DISPATCHES_PER_HIT * cache.stats.hit_rate
            + DISPATCHES_PER_MISS * (1.0 - cache.stats.hit_rate)
        )
        # Measure real wire bytes for a representative response through
        # the Thrift codec (the RPC datacenter-tax path).
        sample_key = "tao:1"
        sample_value = server.cache.peek(sample_key) or backend_fetch(sample_key)
        result.extra["wire_bytes_per_response"] = float(
            response_wire_bytes(sample_key, sample_value, hit=True)
        )
        result.extra["writes"] = float(writes[0])
        return result


#: The TAO response schema: the real Thrift struct the benchmark's
#: client/server exchange, used to measure wire bytes per response.
TAO_RESPONSE_SCHEMA = ThriftStruct(
    "TaoGetResponse",
    [
        ThriftField(1, "key"),
        ThriftField(2, "value"),
        ThriftField(3, "flags"),
        ThriftField(4, "version"),
        ThriftField(5, "hit"),
    ],
)


def response_wire_bytes(key: str, value: bytes, hit: bool) -> int:
    """Serialized size of one TAO response over the Thrift codec."""
    return TAO_RESPONSE_SCHEMA.wire_size(
        {"key": key, "value": value, "flags": 0, "version": 1, "hit": hit}
    )


def expected_hit_rate() -> float:
    """Analytic hit-rate estimate: Zipf mass of keys the cache holds."""
    keys_held = CACHE_CAPACITY_BYTES / MEAN_OBJECT_BYTES
    zipf = ZipfSampler(KEY_SPACE, ZIPF_SKEW)
    return zipf.hit_fraction(int(min(KEY_SPACE, keys_held)))
