"""Memcached-style server model.

Exposes the core Memcached command set (get/set/delete/flush/stats)
over the LRU store, with the text-protocol semantics that matter for
correctness: flat key space, byte values, and LRU eviction under a
byte budget.  TaoBench's server component is built on this class.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cachelib.lru import LruCache

#: Memcached's classic limits.
MAX_KEY_BYTES = 250
MAX_VALUE_BYTES = 1024 * 1024

#: Every character below U+0080 for which ``str.isspace()`` is true.
#: An ASCII key can therefore be whitespace-checked with one C-level
#: ``frozenset.isdisjoint`` instead of a per-character generator.
_ASCII_WHITESPACE = frozenset("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")
#: Bound on the per-server validated-key memo.  TaoBench touches ~200k
#: distinct keys across a long run; 64k entries keeps the memo useful
#: (Zipf traffic concentrates on the head) without unbounded growth.
_VALIDATION_MEMO_MAX = 1 << 16


class MemcachedError(Exception):
    """Raised on protocol violations (bad key/value)."""


def check_key(key: str) -> None:
    """Raise :class:`MemcachedError` unless ``key`` is a valid key."""
    if key.isascii():
        # ASCII fast path: byte length equals character length, and
        # the whitespace scan collapses to one set probe.
        if not key or len(key) > MAX_KEY_BYTES:
            raise MemcachedError(f"invalid key length: {len(key)}")
        if not _ASCII_WHITESPACE.isdisjoint(key):
            raise MemcachedError("keys must not contain whitespace")
    else:
        if len(key.encode("utf-8")) > MAX_KEY_BYTES:
            raise MemcachedError(f"invalid key length: {len(key)}")
        if any(c.isspace() for c in key):
            raise MemcachedError("keys must not contain whitespace")


class MemcachedServer:
    """A single Memcached instance."""

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024) -> None:
        self.cache = LruCache(capacity_bytes)
        #: Keys that have already passed validation.  Validity is a
        #: pure function of the key string, so membership survives
        #: ``delete``/``flush_all`` safely; invalid keys are never
        #: memoized (they must keep raising).
        self._validated: set = set()

    def _check_key(self, key: str) -> None:
        validated = self._validated
        if key in validated:
            return
        check_key(key)
        if len(validated) >= _VALIDATION_MEMO_MAX:
            validated.clear()
        validated.add(key)

    def get(self, key: str) -> Optional[bytes]:
        self._check_key(key)
        return self.cache.get(key)

    def set(self, key: str, value: bytes) -> None:
        self._check_key(key)
        if len(value) > MAX_VALUE_BYTES:
            raise MemcachedError(
                f"value of {len(value)} bytes exceeds the 1MB item limit"
            )
        self.cache.set(key, value)

    def delete(self, key: str) -> bool:
        self._check_key(key)
        return self.cache.delete(key)

    def warm(self, items) -> None:
        """Load a pre-warm fill into an empty cache.

        Leaves the state that :meth:`set` calls of the same items, in
        order, would leave for a fill that evicts nothing.  The fill
        lands through :meth:`LruCache.load`, one
        ``OrderedDict.update`` that creates no per-entry object, so
        TaoBench's ~54k-entry pre-warm gives the cyclic garbage
        collector nothing new to traverse.  Every key must already have
        passed :func:`check_key` (TaoBench's fill checks its keys once,
        when it is built), so the keys seed the validation memo
        directly.
        """
        self.cache.load(items)
        self._validated.update(key for key, _ in items)

    def flush_all(self) -> None:
        """Drop every item (preserves counters, like the real command).

        Delegates to :meth:`LruCache.clear` — O(1) instead of one
        LRU-bookkeeping delete per live key.
        """
        self.cache.clear()

    def stats(self) -> Dict[str, float]:
        s = self.cache.stats
        return {
            "get_hits": s.hits,
            "get_misses": s.misses,
            "evictions": s.evictions,
            "cmd_set": s.sets,
            "curr_items": len(self.cache),
            "bytes": self.cache.used_bytes,
            "hit_rate": s.hit_rate,
        }
