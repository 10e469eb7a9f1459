"""Tests for read-through vs look-aside cache policies."""

import pytest

from repro.cachelib.memcached import MemcachedServer
from repro.cachelib.readthrough import LookAsideCache, ReadThroughCache


def backend(key: str) -> bytes:
    return f"db:{key}".encode()


class TestReadThrough:
    def test_always_returns_value(self):
        cache = ReadThroughCache(MemcachedServer(), backend)
        value, hit = cache.get("k1")
        assert value == b"db:k1"
        assert not hit
        value, hit = cache.get("k1")
        assert hit

    def test_miss_fills_cache(self):
        server = MemcachedServer()
        cache = ReadThroughCache(server, backend)
        cache.get("k1")
        assert server.get("k1") == b"db:k1"

    def test_dispatch_stats(self):
        cache = ReadThroughCache(MemcachedServer(), backend)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.stats.fast_path == 1
        assert cache.stats.slow_path == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_invalidate(self):
        cache = ReadThroughCache(MemcachedServer(), backend)
        cache.get("k")
        assert cache.invalidate("k")
        _, hit = cache.get("k")
        assert not hit


class TestLookAside:
    def test_miss_returns_none(self):
        """The architectural difference: clients own the miss path."""
        cache = LookAsideCache(MemcachedServer())
        assert cache.get("k") is None
        cache.fill("k", b"v")
        assert cache.get("k") == b"v"

    def test_stats(self):
        cache = LookAsideCache(MemcachedServer())
        cache.get("k")
        cache.fill("k", b"v")
        cache.get("k")
        assert cache.stats.slow_path == 1
        assert cache.stats.fast_path == 1
