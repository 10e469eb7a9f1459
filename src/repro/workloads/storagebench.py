"""StorageBench: a ZippyDB-style persistent key-value store benchmark.

The paper's suite covers caching, web, ranking, bigdata, and media;
datacenter fleets also run persistent key-value storage (ZippyDB on
RocksDB).  StorageBench models that tier: a real LSM engine
(:class:`~repro.storage.lsm.LsmTree`) running over a simulated block
device (:class:`~repro.hw.blockdev.BlockDevice`), driven by a
read-dominated point-op mix with short scans — ZippyDB's measured
shape.

What makes this workload different from the CPU-only benchmarks:

* **I/O is simulated, not parameterized.**  Every block read the cache
  misses, every WAL append, every flush and compaction claims a
  queue-depth slot on the device and sleeps its service time.  Tail
  latency emerges from queueing, not from a configured distribution.
* **Background work contends with foreground work** twice: compactions
  share device slots with point reads, and their merge cost is charged
  to the simulated CPU through the harness, stealing cores from
  request processing.
* **Write stalls** propagate to the client: when L0 backs up, ``put``
  handlers block until compaction drains it, which is exactly how
  compaction interference becomes visible in foreground p99.  Stall
  durations feed a :class:`~repro.loadgen.recorder.BucketedHistogram`.

Batch semantics match TaoBench: one simulated request stands for
:data:`BATCH` production requests; device transfers scale by the
batch factor while per-op device latency is charged once (batched ops
pipeline on the device queue).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cachelib.lru import LruCache
from repro.hw.blockdev import BlockDevice, device_spec_for
from repro.loadgen.generators import Request
from repro.loadgen.recorder import BucketedHistogram
from repro.sim.rng import WeightedChoice, ZipfSampler, lognormal_sampler
from repro.storage.lsm import LsmConfig, LsmTree
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness

#: Key popularity: ZippyDB tiers see Zipf-skewed access like TAO, but
#: flatter (storage sits below the caches that absorb the hottest keys).
KEY_SPACE = 50_000
ZIPF_SKEW = 0.9
#: Value sizes: lognormal around ZippyDB's small-value regime.
MEAN_VALUE_BYTES = 400.0
VALUE_SIZE_CV = 0.8
MIN_VALUE_BYTES = 64
MAX_VALUE_BYTES = 4096
#: Operation mix (ZippyDB-style read-dominated with short scans).
GET_FRACTION = 0.78
PUT_FRACTION = 0.19
SCAN_FRACTION = 0.03
SCAN_LENGTH = 20
#: Instruction cost per op relative to ``instructions_per_request``:
#: puts pay memtable insert + WAL framing, scans pay the iterator heap.
GET_INSTR_FRACTION = 1.0
PUT_INSTR_FRACTION = 1.3
SCAN_INSTR_FRACTION = 3.0
#: Compaction merge cost charged to the simulated CPU per input byte
#: (decode, compare, re-encode — the background CPU tax of an LSM).
#: Charged per *sim* byte and batch-multiplied by the harness, so the
#: effective production cost is this times :data:`BATCH`.
COMPACTION_INSTR_PER_BYTE = 0.25
#: Block cache: small relative to the data set, so the device sees a
#: steady miss stream (storage nodes are not caches).
BLOCK_CACHE_BYTES = 2 * 1024 * 1024
#: Engine geometry, scaled down with the rest of the sim-unit data set
#: so the full flush -> L0 compaction -> cascade cycle plays out inside
#: the default sub-second measurement window: the memtable rotates
#: every few dozen puts, levels are small, and tables are narrow
#: enough that one compaction merges a bounded key range.
MEMTABLE_BYTES = 16 * 1024
BASE_LEVEL_BYTES = 512 * 1024
LEVEL_SIZE_MULTIPLIER = 8
TABLE_TARGET_BYTES = 128 * 1024
#: Warm-start image: sorted-level fill fractions relative to each
#: level's target size (just under target so compaction is triggered
#: by the workload's writes, not by the prefill itself).
PREFILL_LEVEL_FILL = 0.96
#: Batching: one simulated request = 200 production requests.
BATCH = 200
#: Offered load relative to unimpeded CPU capacity: storage nodes run
#: well below saturation because the device, not the CPU, is the
#: first bottleneck.
OFFERED_FRACTION = 0.70


class StorageBench(Workload):
    """LSM storage engine benchmark over a simulated block device."""

    name = "storagebench"
    category = "storage"
    metric_name = "peak QPS under stall backpressure"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["storagebench"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars, batch=BATCH)
        env = harness.env
        cores = config.sku.cpu.logical_cores

        # The device class follows the SKU's storage description
        # (SKU1 ships SATA, SKU2+ NVMe), so SKU sweeps exercise the
        # storage hierarchy as well as the CPU.
        device = BlockDevice(env, device_spec_for(config.sku.storage))
        if harness.injector is not None:
            harness.injector.attach_device(device)

        block_cache = LruCache(BLOCK_CACHE_BYTES)
        stall_recorder = BucketedHistogram()
        # When the run carries the SLO control plane, write-stall time
        # is folded into its windowed accounting too — stalls become an
        # SLO signal, not just an iostat line.
        slo_tracker = harness.slo_tracker
        if slo_tracker is None:
            on_stall = stall_recorder.record
        else:

            def on_stall(seconds: float) -> None:
                stall_recorder.record(seconds)
                slo_tracker.add_stall(seconds)

        def compaction_cpu(merge_bytes: float) -> Generator:
            # Background compaction steals simulated cores from request
            # processing; the harness multiplies by the batch factor,
            # matching the device-side ``io_scale``.  Being no request,
            # it waits out a crash-restart instead of failing.
            yield from harness.wait_online()
            yield from harness.burst(merge_bytes * COMPACTION_INSTR_PER_BYTE)

        lsm_config = LsmConfig(
            memtable_bytes=MEMTABLE_BYTES,
            base_level_bytes=BASE_LEVEL_BYTES,
            level_size_multiplier=LEVEL_SIZE_MULTIPLIER,
            table_target_bytes=TABLE_TARGET_BYTES,
        )
        tree = LsmTree(
            env,
            device,
            block_cache,
            config=lsm_config,
            io_scale=BATCH,
            compaction_cpu=compaction_cpu,
            on_stall=on_stall,
        )
        self._prefill(tree, lsm_config)

        pool = harness.make_pool("engine", max(2, cores * 4))
        op_mix = WeightedChoice(
            ("get", "put", "scan"),
            (GET_FRACTION, PUT_FRACTION, SCAN_FRACTION),
        )
        op_rng = harness.rng.stream("ops")
        key_rng = harness.rng.stream("keys")
        size_rng = harness.rng.stream("value-sizes")
        size_sampler = lognormal_sampler(MEAN_VALUE_BYTES, VALUE_SIZE_CV)
        zipf = ZipfSampler(KEY_SPACE, ZIPF_SKEW)

        instr = self._chars.instructions_per_request
        get_instr = instr * GET_INSTR_FRACTION
        put_instr = instr * PUT_INSTR_FRACTION
        scan_instr = instr * SCAN_INSTR_FRACTION

        def handler(request: Request) -> Generator:
            op = op_mix.sample(op_rng)
            key = zipf.sample(key_rng)
            if op == "get":

                def work() -> Generator:
                    yield from tree.get(key)
                    yield from harness.burst(get_instr)

            elif op == "put":
                size = int(
                    max(
                        MIN_VALUE_BYTES,
                        min(MAX_VALUE_BYTES, size_sampler.sample(size_rng)),
                    )
                )

                def work() -> Generator:
                    yield from tree.put(key, size)
                    yield from harness.burst(put_instr)

            else:

                def work() -> Generator:
                    yield from tree.scan(key, SCAN_LENGTH)
                    yield from harness.burst(scan_instr)

            yield pool.submit(work)

        # Warmup-edge reset: the report covers the measurement window
        # only, so device/engine/stall counters restart when the
        # harness's own recorder does.
        cache_baseline = [0, 0]

        def window_reset() -> Generator:
            yield env.sleep(config.warmup_seconds)
            device.reset_stats()
            tree.stats.reset()
            stall_recorder.clear()
            cache_baseline[0] = block_cache.stats.hits
            cache_baseline[1] = block_cache.stats.lookups

        env.process(window_reset())

        offered = (
            harness.server.capacity_rps() * OFFERED_FRACTION * config.offered_load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)

        device.settle()
        now = env.now
        io = device.stats
        stats = tree.stats
        window_hits = block_cache.stats.hits - cache_baseline[0]
        window_lookups = block_cache.stats.lookups - cache_baseline[1]
        extra = result.extra
        extra["offered_rps"] = offered
        extra["io_reads"] = float(io.reads)
        extra["io_writes"] = float(io.writes)
        extra["io_read_bytes"] = io.read_bytes
        extra["io_write_bytes"] = io.write_bytes
        extra["io_queue_wait_s"] = io.wait_seconds
        extra["io_mean_queue_depth"] = io.mean_queue_depth(now)
        extra["io_device_util"] = io.utilization(now, device.spec.queue_depth)
        extra["io_compaction_bytes"] = (
            stats.compaction_read_bytes + stats.compaction_write_bytes
        )
        extra["io_compactions"] = float(stats.compactions)
        extra["io_flushes"] = float(stats.flushes)
        extra["io_wal_bytes"] = stats.wal_bytes
        extra["io_cache_hit_rate"] = (
            window_hits / window_lookups if window_lookups else 0.0
        )
        extra["io_bloom_fp_rate"] = stats.bloom_fp_rate
        extra["io_stall_seconds"] = stats.stall_seconds
        extra["io_stall_events"] = float(stats.stall_events)
        extra["io_stall_p99_s"] = (
            stall_recorder.percentile(99.0) if stall_recorder.total else 0.0
        )
        extra["lsm_gets"] = float(stats.gets)
        extra["lsm_puts"] = float(stats.puts)
        extra["lsm_scans"] = float(stats.scans)
        extra["lsm_hit_rate"] = stats.hits / stats.gets if stats.gets else 0.0
        extra["lsm_table_count"] = float(tree.table_count)
        extra["lsm_data_mb"] = tree.total_data_bytes / 1e6
        return result

    @staticmethod
    def _prefill(tree: LsmTree, lsm_config: LsmConfig) -> None:
        """Install the warm-start image a long-running node boots with.

        Deterministic and RNG-free: fixed-size values laid out so L1
        sparsely covers the whole key space and L2 densely covers the
        popular prefix.  Each level is filled to just under its target
        size so the first compactions are triggered by the measured
        write traffic.
        """
        value = int(MEAN_VALUE_BYTES)
        l1_budget = int(
            lsm_config.level_target_bytes(1) * PREFILL_LEVEL_FILL
        )
        l1_keys = max(1, l1_budget // value)
        stride = max(1, -(-KEY_SPACE // l1_keys))  # ceil: stay under budget
        tree.load_level(
            1,
            [(key, value) for key in range(1, KEY_SPACE + 1, stride)][:l1_keys],
        )
        l2_budget = int(
            lsm_config.level_target_bytes(2) * PREFILL_LEVEL_FILL
        )
        l2_keys = min(KEY_SPACE, max(1, l2_budget // value))
        tree.load_level(2, [(key, value) for key in range(1, l2_keys + 1)])
