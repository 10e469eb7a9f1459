"""CloudSuite comparator models (Section 4.6, Figure 13).

The paper evaluates three CloudSuite benchmarks and finds each fails to
scale on modern many-core servers.  These models implement the
*mechanisms* behind each observed failure:

* **Data Caching** (Fig. 13a) — Memcached with the Twitter dataset, a
  look-aside (not read-through) cache.  Scaling defects: the benchmark
  supports at most five server instances (more segfault the client),
  and each instance funnels requests through a serialized network
  thread.  Client threads *spin* while waiting for the serialized
  section, so adding threads raises CPU utilization without adding
  throughput — on a 176-core SKU throughput even decreases as spinners
  steal cycles from useful work.
* **Web Serving** (Fig. 13b) — Elgg/PHP/Nginx with MariaDB.  Scaling
  defect: a fixed-size database connection pool; past a load scale of
  ~100, extra clients queue on the pool, throughput flattens, and
  requests begin timing out (504s) past ~140 even though CPU (request
  setup and polling that runs before the DB wait) keeps climbing to
  100%.
* **In-memory Analytics** (Fig. 13c) — Spark ALS on the ~1.2GB
  MovieLens dataset.  Scaling defect: dataset-bound parallelism; the
  job's partition count leaves a 176-core machine ~20% utilized no
  matter the executor configuration.  A real (NumPy) mini-ALS provides
  the correctness layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Generator, List, Tuple

import numpy as np

from repro.cachelib.memcached import MemcachedServer
from repro.cachelib.readthrough import LookAsideCache
from repro.loadgen.generators import Request
from repro.loadgen.recorder import LatencyRecorder
from repro.sim.resources import Resource
from repro.sim.rng import ZipfSampler
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES, PRODUCTION_PROFILES
from repro.workloads.runner import BenchmarkHarness

# --- Data Caching -------------------------------------------------------------

#: CloudSuite crashes with more than five Memcached instances.
MAX_SERVER_INSTANCES = 5
#: Fraction of each request serialized on the instance network thread.
SERIALIZED_FRACTION = 0.35
#: CPU burned per spin attempt while waiting on the serialized section.
SPIN_QUANTUM_S = 0.002
#: Batch factor for the very high request rate.
DATA_CACHING_BATCH = 400


class CloudSuiteDataCaching(Workload):
    """Look-aside Memcached with per-instance serialization + spinning."""

    name = "cloudsuite-data-caching"
    category = "caching"
    metric_name = "RPS"

    def __init__(self, client_threads_per_core: float = 2.0) -> None:
        # CloudSuite's cache workload resembles TAO's but without the
        # read-through architecture or the datacenter-tax calibration;
        # reuse the caching profile as the closest uarch description.
        self._chars = BENCHMARK_PROFILES["taobench"].evolve(
            name="cloudsuite-data-caching"
        )
        if client_threads_per_core <= 0:
            raise ValueError("client_threads_per_core must be positive")
        self.client_threads_per_core = client_threads_per_core

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        config = dataclasses.replace(
            config, warmup_seconds=min(config.warmup_seconds, 0.3)
        )
        harness = BenchmarkHarness(config, self._chars, batch=DATA_CACHING_BATCH)
        env = harness.env
        sched = harness.scheduler
        cores = config.sku.cpu.logical_cores
        instances = MAX_SERVER_INSTANCES
        instance_locks = [Resource(env, capacity=1) for _ in range(instances)]
        servers = [
            MemcachedServer(capacity_bytes=4 * 1024 * 1024)
            for _ in range(instances)
        ]
        caches = [LookAsideCache(s) for s in servers]
        zipf = ZipfSampler(50_000, 0.95)
        key_rng = harness.rng.stream("keys")
        instr = self._chars.instructions_per_request
        recorder = harness.recorder
        completed = [0]

        num_clients = max(2, int(cores * self.client_threads_per_core))

        def client_loop(client_id: int) -> Generator:
            while True:
                rank = zipf.sample(key_rng)
                shard = rank % instances
                key = f"tw:{rank}"
                start = env.now
                cache = caches[shard]
                if cache.get(key) is None:
                    yield env.sleep(0.001)
                    cache.fill(key, key.encode() * 8)
                # Spin until the instance's serialized section is free.
                lock = instance_locks[shard]
                while lock.count >= lock.capacity:
                    yield from sched.execute(SPIN_QUANTUM_S, 0.0)
                grant = lock.request()
                yield grant
                try:
                    yield from harness.burst(instr * SERIALIZED_FRACTION)
                finally:
                    lock.release(grant)
                yield from harness.burst(instr * (1.0 - SERIALIZED_FRACTION))
                recorder.record(env.now - start)
                completed[0] += 1

        for i in range(num_clients):
            env.process(client_loop(i))

        env.run(until=config.warmup_seconds)
        recorder.reset()
        sched.stats.reset(env.now)
        before = completed[0]
        env.run(until=config.warmup_seconds + config.measure_seconds)
        done = completed[0] - before
        result = harness._assemble(done)
        hit = sum(c.stats.hit_rate for c in caches) / len(caches)
        result.extra["cache_hit_rate"] = hit
        result.extra["instances"] = float(instances)
        result.extra["client_threads"] = float(num_clients)
        return result


def data_caching_curve(
    sku_name: str, thread_levels: List[float], seed: int = 7
) -> List[Tuple[float, float]]:
    """Figure 13a: (cpu_util, rps) points across client-thread counts."""
    points = []
    for threads in thread_levels:
        workload = CloudSuiteDataCaching(client_threads_per_core=threads)
        result = workload.run(
            RunConfig(sku_name=sku_name, seed=seed, measure_seconds=0.6)
        )
        points.append((result.cpu_util, result.throughput_rps))
    return points


# --- Web Serving ----------------------------------------------------------------

#: Fixed database connection pool — the Fig. 13b bottleneck.
DB_POOL_SIZE = 16
#: Database time per request (holding a pool connection).
DB_TIME_MEAN_S = 0.15
#: Request timeout -> "504 Gateway Timeout".
GATEWAY_TIMEOUT_S = 1.0
#: Heavyweight PHP work per op (Elgg renders are expensive).
WEB_SERVING_INSTR = 2.0e9
#: Share of the op's CPU burned before the DB wait (setup + polling) —
#: it runs for every arriving request, which is why CPU keeps climbing
#: after goodput flattens.
PRE_DB_INSTR_FRACTION = 0.55


class CloudSuiteWebServing(Workload):
    """Elgg-style PHP serving with a fixed DB connection pool."""

    name = "cloudsuite-web-serving"
    category = "web"
    metric_name = "ops/s"

    def __init__(self, load_scale_factor: int = 100) -> None:
        self._chars = BENCHMARK_PROFILES["mediawiki"].evolve(
            name="cloudsuite-web-serving",
            instructions_per_request=WEB_SERVING_INSTR,
        )
        if load_scale_factor < 1:
            raise ValueError("load_scale_factor must be >= 1")
        self.load_scale_factor = load_scale_factor

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        cores = config.sku.cpu.logical_cores
        pool = harness.make_pool("php-workers", cores * 3)
        db_pool = Resource(env, capacity=DB_POOL_SIZE)
        db_rng = harness.rng.stream("db")
        instr = self._chars.instructions_per_request
        errors = [0]

        def serve() -> Generator:
            start = env.now
            # Setup/polling work burns CPU whether or not the DB keeps up.
            yield from harness.burst(instr * PRE_DB_INSTR_FRACTION)
            conn = db_pool.request()
            yield conn
            try:
                if env.now - start > GATEWAY_TIMEOUT_S:
                    raise TimeoutError("504 Gateway Timeout")
                yield env.sleep(db_rng.expovariate(1.0 / DB_TIME_MEAN_S))
            finally:
                db_pool.release(conn)
            yield from harness.burst(instr * (1.0 - PRE_DB_INSTR_FRACTION))

        def handler(request: Request) -> Generator:
            done = pool.submit(serve)
            try:
                yield done
            except TimeoutError:
                errors[0] += 1

        # Load scale n ~ n concurrent users issuing ~1 op/s each.
        offered = float(self.load_scale_factor) * 1.0 * config.offered_load_scale
        result = harness.run_open_loop(handler, offered_rps=offered)
        # The generator counts a timed-out request as completed (the
        # handler swallows the 504); goodput must exclude them.
        errors_per_second = errors[0] / config.measure_seconds
        result.throughput_rps = max(0.0, result.throughput_rps - errors_per_second)
        total = result.latency.get("count", 0) + errors[0]
        result.extra["load_scale"] = float(self.load_scale_factor)
        result.extra["errors_per_second"] = errors[0] / config.measure_seconds
        result.extra["error_rate"] = errors[0] / max(1.0, total)
        return result


def web_serving_curve(
    sku_name: str, load_scales: List[int], seed: int = 7
) -> List[Tuple[int, float, float, float]]:
    """Figure 13b: (scale, ops/s, errors/s, cpu_util) per load scale."""
    points = []
    for scale in load_scales:
        workload = CloudSuiteWebServing(load_scale_factor=scale)
        result = workload.run(
            RunConfig(sku_name=sku_name, seed=seed, measure_seconds=3.0)
        )
        points.append(
            (
                scale,
                result.throughput_rps,
                result.extra["errors_per_second"],
                result.cpu_util,
            )
        )
    return points


# --- In-memory Analytics ---------------------------------------------------------

#: MovieLens-scale dataset: fixed partitioning caps parallelism.
ALS_PARTITIONS = 32
ALS_ITERATIONS = 6
#: Latent factor rank for the real mini-ALS.
ALS_RANK = 8
#: Per-partition instruction budget relative to the Spark task size —
#: sized so the job spans the ~500s window of Figure 13c.
ALS_TASK_INSTR_MULT = 6.5


@dataclass
class AlsResult:
    """Output of the real (NumPy) mini-ALS correctness layer."""

    rmse_start: float
    rmse_end: float
    iterations: int

    @property
    def improved(self) -> bool:
        return self.rmse_end < self.rmse_start


def run_mini_als(
    num_users: int = 120,
    num_items: int = 80,
    rank: int = ALS_RANK,
    iterations: int = 5,
    seed: int = 3,
) -> AlsResult:
    """Alternating least squares on a synthetic rating matrix.

    The real algorithm CloudSuite's benchmark runs, at toy scale:
    factor a sparse rating matrix R ~ U @ V.T by alternately solving
    ridge-regularized least squares for U and V.
    """
    rng = np.random.default_rng(seed)
    true_u = rng.normal(size=(num_users, rank))
    true_v = rng.normal(size=(num_items, rank))
    ratings = true_u @ true_v.T + rng.normal(scale=0.1, size=(num_users, num_items))
    mask = rng.random((num_users, num_items)) < 0.3

    u = rng.normal(scale=0.1, size=(num_users, rank))
    v = rng.normal(scale=0.1, size=(num_items, rank))
    lam = 0.1

    def rmse() -> float:
        pred = u @ v.T
        err = (pred - ratings)[mask]
        return float(np.sqrt(np.mean(err**2)))

    start = rmse()
    eye = lam * np.eye(rank)
    for _ in range(iterations):
        for i in range(num_users):
            cols = mask[i]
            if not cols.any():
                continue
            a = v[cols].T @ v[cols] + eye
            b = v[cols].T @ ratings[i, cols]
            u[i] = np.linalg.solve(a, b)
        for j in range(num_items):
            rows = mask[:, j]
            if not rows.any():
                continue
            a = u[rows].T @ u[rows] + eye
            b = u[rows].T @ ratings[rows, j]
            v[j] = np.linalg.solve(a, b)
    return AlsResult(rmse_start=start, rmse_end=rmse(), iterations=iterations)


class CloudSuiteInMemoryAnalytics(Workload):
    """Spark ALS with dataset-bound parallelism."""

    name = "cloudsuite-in-memory-analytics"
    category = "bigdata"
    metric_name = "job seconds"

    def __init__(self) -> None:
        self._chars = PRODUCTION_PROFILES["spark-prod"].evolve(
            name="cloudsuite-in-memory-analytics"
        )

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def utilization_timeline(
        self, config: RunConfig, sample_period_s: float = 5.0
    ) -> List[Tuple[float, float]]:
        """Figure 13c: (time, cpu_util) samples over the ALS job."""
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        cores = config.sku.cpu.logical_cores
        pool = harness.make_pool("executors", cores)
        instr_per_task = (
            self._chars.instructions_per_request * ALS_TASK_INSTR_MULT
        )
        samples: List[Tuple[float, float]] = []
        finished = [False]

        def sampler() -> Generator:
            while not finished[0]:
                harness.scheduler.stats.reset(env.now)
                yield env.sleep(sample_period_s)
                samples.append(
                    (env.now, harness.scheduler.stats.cpu_util(env.now, cores))
                )

        def driver() -> Generator:
            # The defect: only ALS_PARTITIONS tasks exist per phase,
            # so at most ALS_PARTITIONS cores are ever busy.
            for _ in range(ALS_ITERATIONS):
                for _phase in ("users", "items"):
                    events = [
                        pool.submit(lambda: harness.burst(instr_per_task))
                        for _ in range(ALS_PARTITIONS)
                    ]
                    for event in events:
                        yield event
            finished[0] = True

        env.process(sampler())
        env.process(driver())
        env.run()
        if not finished[0]:
            raise RuntimeError("ALS job did not finish")
        return samples

    def run(self, config: RunConfig) -> WorkloadResult:
        timeline = self.utilization_timeline(config)
        job_end = timeline[-1][0] if timeline else 0.0
        utils = [u for _, u in timeline]
        avg_util = sum(utils) / len(utils) if utils else 0.0
        als = run_mini_als()
        harness = BenchmarkHarness(config, self._chars)
        steady = harness.server.steady_state(max(0.02, avg_util), 1.0)
        return WorkloadResult(
            workload=self.name,
            sku=config.sku_name,
            kernel=config.kernel_version,
            throughput_rps=1.0 / max(1e-9, job_end),
            latency={"count": float(len(timeline)), "job_seconds": job_end},
            cpu_util=avg_util,
            kernel_util=avg_util * self._chars.kernel_frac,
            scaling_efficiency=min(
                1.0, ALS_PARTITIONS / config.sku.cpu.logical_cores
            ),
            steady=steady,
            extra={
                "job_seconds": job_end,
                "als_rmse_start": als.rmse_start,
                "als_rmse_end": als.rmse_end,
            },
        )
