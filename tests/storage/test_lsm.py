"""LsmTree: flush rotation, compaction scheduling, write stalls, reads."""

import pytest

from repro.cachelib.lru import LruCache
from repro.hw.blockdev import BlockDevice, BlockDeviceSpec
from repro.sim.engine import Environment
from repro.storage.lsm import LsmConfig, LsmTree

FAST_SPEC = BlockDeviceSpec(
    name="toy",
    queue_depth=8,
    seq_read_bps=1e9,
    rand_read_bps=5e8,
    seq_write_bps=1e9,
    rand_write_bps=5e8,
    latency_s=1e-6,
)


def make_tree(config=None, on_stall=None, compaction_cpu=None, io_scale=1):
    env = Environment()
    device = BlockDevice(env, FAST_SPEC)
    cache = LruCache(64 * 1024)
    tree = LsmTree(
        env,
        device,
        cache,
        config=config or LsmConfig(),
        io_scale=io_scale,
        compaction_cpu=compaction_cpu,
        on_stall=on_stall,
    )
    return env, device, tree


def drive(env, gen):
    """Run one generator to completion in the sim; return its value."""
    out = {}

    def proc():
        out["value"] = yield from gen

    env.process(proc())
    env.run()
    return out["value"]


def assert_level_invariants(tree):
    """Sorted levels hold non-overlapping runs in ascending key order."""
    for level in range(1, len(tree.levels)):
        tables = tree.levels[level]
        for a, b in zip(tables, tables[1:]):
            assert a.max_key < b.min_key


class TestFlush:
    def test_memtable_rotates_at_threshold(self):
        config = LsmConfig(memtable_bytes=300, l0_compaction_trigger=99)
        env, device, tree = make_tree(config)

        def writer():
            for key in range(3):
                yield from tree.put(key, 100)

        env.process(writer())
        env.run()
        assert tree.stats.flushes == 1
        assert len(tree.memtable) == 0
        assert len(tree.levels[0]) == 1
        assert tree.levels[0][0].data_bytes == 300
        assert tree.stats.flush_write_bytes == 300
        # Every put paid a WAL append before landing in the memtable.
        assert tree.stats.wal_bytes == 3 * (100 + config.wal_record_overhead)
        assert device.stats.writes == 4  # 3 WAL appends + 1 flush

    def test_io_scale_multiplies_device_bytes_only(self):
        """Batch semantics: device transfers scale, tree structure not."""
        config = LsmConfig(memtable_bytes=300, l0_compaction_trigger=99)
        env, device, tree = make_tree(config, io_scale=50)
        drive(env, tree.put(1, 100))
        assert tree.memtable.data_bytes == 100
        assert device.stats.write_bytes == (100 + config.wal_record_overhead) * 50


class TestCompactionScheduling:
    def test_l0_trigger_compacts_into_l1(self):
        config = LsmConfig(
            memtable_bytes=200,
            l0_compaction_trigger=2,
            l0_stall_trigger=8,
            base_level_bytes=100_000,
        )
        env, device, tree = make_tree(config)

        def writer():
            for key in range(4):  # 2 flushes -> trigger
                yield from tree.put(key, 100)

        env.process(writer())
        env.run()
        assert tree.stats.compactions == 1
        assert tree.levels[0] == []
        assert tree.level_bytes(1) == 400
        assert_level_invariants(tree)
        # Compaction charged the device for the merge on both sides.
        assert tree.stats.compaction_read_bytes == 400
        assert tree.stats.compaction_write_bytes == 400

    def test_over_target_sorted_level_cascades(self):
        """A sorted level past its target size is compacted into the
        next level even with L0 quiet."""
        config = LsmConfig(
            memtable_bytes=10_000,
            base_level_bytes=1000,
            level_size_multiplier=10,
            table_target_bytes=500,
        )
        env, device, tree = make_tree(config)
        tree.load_level(1, [(k, 100) for k in range(1, 21)])  # 2000 > 1000
        assert tree.level_bytes(1) > config.level_target_bytes(1)
        tree._maybe_compact()
        env.run()
        assert tree.stats.compactions >= 1
        assert tree.level_bytes(1) <= config.level_target_bytes(1)
        assert tree.level_bytes(2) > 0
        assert_level_invariants(tree)

    def test_compaction_merges_overlapping_next_level(self):
        """L0->L1 compaction rewrites the overlapping L1 key range and
        keeps newest values (the L0 versions)."""
        config = LsmConfig(
            memtable_bytes=200,
            l0_compaction_trigger=2,
            base_level_bytes=100_000,
            table_target_bytes=100_000,
        )
        env, device, tree = make_tree(config)
        tree.load_level(1, [(k, 50) for k in range(1, 5)])

        def writer():
            for key in (1, 2, 3, 4):  # overwrite with bigger values
                yield from tree.put(key, 100)

        env.process(writer())
        env.run()
        assert tree.stats.compactions == 1
        assert tree.levels[0] == []
        [table] = tree.levels[1]
        assert table.entries() == [(1, 100), (2, 100), (3, 100), (4, 100)]

    def test_compaction_cpu_hook_charged_input_bytes(self):
        charged = []
        holder = {}

        def cpu(merge_bytes):
            charged.append(merge_bytes)
            yield holder["env"].sleep(0.001)

        config = LsmConfig(memtable_bytes=200, l0_compaction_trigger=2)
        env, device, tree = make_tree(config, compaction_cpu=cpu)
        holder["env"] = env

        def writer():
            for key in range(4):
                yield from tree.put(key, 100)

        env.process(writer())
        env.run()
        assert charged == [400]  # unscaled sim bytes: 2 runs x 200B


class TestWriteStalls:
    def test_l0_backlog_stalls_writers_until_drain(self):
        stalls = []
        config = LsmConfig(
            memtable_bytes=100,
            l0_compaction_trigger=3,
            l0_stall_trigger=3,
            base_level_bytes=100_000,
        )
        env, device, tree = make_tree(config, on_stall=stalls.append)
        done = []

        def writer():
            for key in range(8):
                yield from tree.put(key, 100)
            done.append(True)

        env.process(writer())
        env.run()
        assert done == [True]  # backpressure released, writer finished
        assert tree.stats.stall_events >= 1
        assert tree.stats.stall_seconds > 0.0
        assert stalls and all(s > 0.0 for s in stalls)
        assert len(stalls) == tree.stats.stall_events
        assert pytest.approx(tree.stats.stall_seconds) == sum(stalls)
        assert tree.stats.compactions >= 1
        assert len(tree.levels[0]) < config.l0_stall_trigger

    def test_no_stalls_below_trigger(self):
        config = LsmConfig(
            memtable_bytes=100,
            l0_compaction_trigger=2,
            l0_stall_trigger=8,
        )
        env, device, tree = make_tree(config)

        def writer():
            for key in range(6):
                yield from tree.put(key, 100)

        env.process(writer())
        env.run()
        assert tree.stats.stall_events == 0


class TestReadPath:
    def test_get_from_sorted_level_and_cache(self):
        env, device, tree = make_tree(LsmConfig(memtable_bytes=10_000))
        tree.load_level(1, [(k, 100) for k in range(1, 11)])
        assert drive(env, tree.get(5)) is True
        first_reads = device.stats.reads
        assert first_reads == 1  # one block read on the cold lookup
        assert drive(env, tree.get(5)) is True  # same block, now cached
        assert device.stats.reads == first_reads
        assert tree.stats.hits == 2

    def test_get_miss_outside_key_range_touches_nothing(self):
        env, device, tree = make_tree(LsmConfig(memtable_bytes=10_000))
        tree.load_level(1, [(k, 100) for k in range(1, 11)])
        assert drive(env, tree.get(999)) is False
        assert device.stats.reads == 0

    def test_memtable_hit_is_free(self):
        env, device, tree = make_tree(LsmConfig(memtable_bytes=10_000))
        drive(env, tree.put(7, 100))
        writes = device.stats.writes  # WAL only
        assert drive(env, tree.get(7)) is True
        assert device.stats.reads == 0
        assert device.stats.writes == writes

    def test_scan_merges_newest_wins(self):
        env, device, tree = make_tree(LsmConfig(memtable_bytes=10_000))
        tree.load_level(1, [(k, 100) for k in range(1, 6)])
        drive(env, tree.put(2, 500))  # newer version in the memtable
        count, data_bytes = drive(env, tree.scan(1, 3))
        assert count == 3
        assert data_bytes == 100 + 500 + 100  # keys 1, 2(new), 3
        assert tree.stats.scans == 1
        assert tree.stats.scanned_entries == 3

    def test_load_level_validation(self):
        env, device, tree = make_tree()
        with pytest.raises(ValueError):
            tree.load_level(0, [(1, 1)])
        tree.load_level(1, [(1, 1)])
        with pytest.raises(ValueError):
            tree.load_level(1, [(2, 1)])
