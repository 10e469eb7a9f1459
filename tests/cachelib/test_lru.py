"""Tests for the byte-bounded LRU cache."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cachelib.lru import CacheStats, LruCache


class TestBasics:
    def test_get_miss(self):
        cache = LruCache(100)
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_set_get(self):
        cache = LruCache(100)
        cache.set("k", b"value")
        assert cache.get("k") == b"value"
        assert cache.stats.hits == 1

    def test_replace_updates_bytes(self):
        cache = LruCache(100)
        cache.set("k", b"12345")
        cache.set("k", b"12")
        assert cache.used_bytes == 2
        assert len(cache) == 1

    def test_value_type_enforced(self):
        with pytest.raises(TypeError):
            LruCache(100).set("k", "not bytes")

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError):
            LruCache(10).set("k", b"x" * 11)

    def test_delete(self):
        cache = LruCache(100)
        cache.set("k", b"v")
        assert cache.delete("k")
        assert not cache.delete("k")
        assert cache.used_bytes == 0


class TestEviction:
    def test_lru_order(self):
        cache = LruCache(30)
        cache.set("a", b"x" * 10)
        cache.set("b", b"x" * 10)
        cache.set("c", b"x" * 10)
        cache.get("a")  # refresh a
        cache.set("d", b"x" * 10)  # evicts b (oldest untouched)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_peek_does_not_refresh(self):
        cache = LruCache(20)
        cache.set("a", b"x" * 10)
        cache.set("b", b"x" * 10)
        cache.peek("a")
        cache.set("c", b"x" * 10)  # evicts a despite the peek
        assert "a" not in cache

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 40)), max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_budget_never_exceeded(self, ops):
        cache = LruCache(100)
        for key, size in ops:
            cache.set(f"k{key}", b"x" * size)
            assert cache.used_bytes <= 100
        live = cache.items_snapshot()
        assert sum(len(v) for _, v in live) == cache.used_bytes


class TestStats:
    def test_hit_rate(self):
        cache = LruCache(100)
        cache.set("k", b"v")
        cache.get("k")
        cache.get("k")
        cache.get("nope")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate(self):
        assert LruCache(100).stats.hit_rate == 0.0


class TestClearAndLoad:
    def test_clear_preserves_counters(self):
        cache = LruCache(100)
        cache.set("a", b"12345")
        cache.get("a")
        cache.get("missing")
        dropped = cache.clear()
        assert dropped == 1
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.sets == 1

    def test_load_matches_set_sequence(self):
        items = [(f"k{i}", b"x" * (i + 1)) for i in range(10)]
        via_sets = LruCache(1000)
        for key, value in items:
            via_sets.set(key, value)
        via_load = LruCache(1000)
        via_load.load(items)
        assert via_load.items_snapshot() == via_sets.items_snapshot()
        assert via_load.used_bytes == via_sets.used_bytes
        assert via_load.stats.sets == via_sets.stats.sets

    def test_load_requires_empty_cache(self):
        cache = LruCache(100)
        cache.set("a", b"v")
        with pytest.raises(ValueError):
            cache.load([("b", b"v")])

    def test_load_rejects_overflow(self):
        cache = LruCache(10)
        with pytest.raises(ValueError):
            cache.load([("a", b"x" * 6), ("b", b"x" * 6)])
        assert len(cache) == 0  # failed load leaves the cache empty

    @pytest.mark.parametrize(
        "capacity,items",
        [
            (100, [("a", b"xx"), ("a", b"yyy")]),  # would miscount bytes
            (4, [("a", b"xxx"), ("a", b"yy")]),  # would be refused as too big
        ],
    )
    def test_load_rejects_repeated_key(self, capacity, items):
        cache = LruCache(capacity)
        with pytest.raises(ValueError, match="'a'"):
            cache.load([("b", b"v")] + items)
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.stats.sets == 0

    def test_load_adds_no_tracked_object_per_entry(self):
        items = tuple((f"k{i}", b"x" * (i % 7 + 1)) for i in range(1000))
        cache = LruCache(10_000)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            cache.load(items)
            after = len(gc.get_objects())
        finally:
            if was_enabled:
                gc.enable()
        assert len(cache) == 1000
        assert after - before < 10


class _ReferenceLru:
    """The LRU contract as an ordered list of ``(key, value)``, LRU
    first: the slow, obvious model :class:`LruCache` must match.  It
    mirrors the cache's interface so one test loop can call both."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.stats = CacheStats()

    def _find(self, key):
        for i, entry in enumerate(self.entries):
            if entry[0] == key:
                return i
        return None

    def __len__(self):
        return len(self.entries)

    def __contains__(self, key):
        return self._find(key) is not None

    @property
    def used_bytes(self):
        return sum(len(value) for _, value in self.entries)

    def get(self, key):
        i = self._find(key)
        if i is None:
            self.stats.misses += 1
            return None
        entry = self.entries.pop(i)
        self.entries.append(entry)
        self.stats.hits += 1
        return entry[1]

    def peek(self, key):
        i = self._find(key)
        return None if i is None else self.entries[i][1]

    def set(self, key, value):
        if len(value) > self.capacity:
            raise ValueError("too big")
        i = self._find(key)
        if i is not None:
            del self.entries[i]
        self.entries.append((key, value))
        while self.used_bytes > self.capacity:
            self.entries.pop(0)
            self.stats.evictions += 1
        self.stats.sets += 1

    def delete(self, key):
        i = self._find(key)
        if i is None:
            return False
        del self.entries[i]
        return True

    def clear(self):
        count = len(self.entries)
        self.entries = []
        return count

    def load(self, items):
        keys = [key for key, _ in items]
        if (
            self.entries
            or len(set(keys)) != len(keys)
            or sum(len(v) for _, v in items) > self.capacity
        ):
            raise ValueError("bad load")
        self.entries = list(items)
        self.stats.sets += len(items)

    def items_snapshot(self):
        return tuple(self.entries)


class TestDifferential:
    """Seeded random operation mixes against the reference model."""

    KEYS = [f"k{i}" for i in range(6)]
    CAPACITY = 24

    def _op(self, rng):
        """One ``(method name, args)``."""
        keys = self.KEYS
        kind = rng.choice(
            ["set", "set", "set", "get", "get", "peek", "delete",
             "__contains__", "clear", "load"]
        )
        if kind == "set":
            size = rng.randint(1, self.CAPACITY + 2)  # a few are too big
            value = bytes([rng.randrange(256)]) * size
            return kind, (rng.choice(keys), value)
        if kind in ("get", "peek", "delete", "__contains__"):
            return kind, (rng.choice(keys),)
        if kind == "load":
            picked = [rng.choice(keys) for _ in range(rng.randint(0, 4))]
            return kind, ([(k, b"L" * rng.randint(1, 9)) for k in picked],)
        return kind, ()

    @staticmethod
    def _call(target, name, args):
        try:
            return getattr(target, name)(*args)
        except ValueError:
            return "ValueError"

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_model(self, seed):
        rng = random.Random(seed)
        cache = LruCache(self.CAPACITY)
        model = _ReferenceLru(self.CAPACITY)
        for step in range(300):
            name, args = self._op(rng)
            got = self._call(cache, name, args)
            assert got == self._call(model, name, args), (step, name, args)
            assert cache.stats == model.stats, (step, name, args)
            assert len(cache) == len(model), (step, name, args)
            assert cache.used_bytes == model.used_bytes, (step, name, args)
            assert cache.items_snapshot() == model.items_snapshot(), (step, name)
