"""Byte-bounded LRU cache.

The core data structure under both the Memcached model and the
read-through cache.  Eviction is strict LRU by byte budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    sets: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class LruCache:
    """Strict-LRU cache bounded by total value bytes.

    The store is one ``OrderedDict`` from key to value bytes, LRU first,
    and an entry's size is ``len(value)``.  It holds no per-entry Python
    object: bytes are not tracked by the cyclic garbage collector, so a
    large fill (TaoBench's ~54k-entry pre-warm) adds nothing for it to
    traverse.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._used_bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def get(self, key: str) -> Optional[bytes]:
        """Return the value and refresh recency, or None on miss."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: str) -> Optional[bytes]:
        """Like :meth:`get` but without touching recency or stats."""
        return self._entries.get(key)

    def set(self, key: str, value: bytes) -> None:
        """Insert or replace; evicts LRU entries to fit.

        A replacement overwrites the value and moves the key to MRU,
        and eviction runs *after* the entry sits at MRU.  That evicts
        exactly the victims the remove-then-reinsert formulation did:
        the updated/new entry is at the MRU end, so ``_evict_lru``
        pops the same LRU-ordered others, and ``used > capacity`` here
        is the old ``used_without_entry + size > capacity``.
        """
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        size = len(value)
        if size > self.capacity_bytes:
            raise ValueError(
                f"value of {size} bytes exceeds capacity {self.capacity_bytes}"
            )
        entries = self._entries
        old = entries.get(key)
        entries[key] = bytes(value)
        if old is not None:
            self._used_bytes += size - len(old)
            entries.move_to_end(key)
        else:
            self._used_bytes += size
        while self._used_bytes > self.capacity_bytes:
            self._evict_lru()
        self.stats.sets += 1

    def delete(self, key: str) -> bool:
        """Remove a key; returns True if it was present."""
        value = self._entries.pop(key, None)
        if value is None:
            return False
        self._used_bytes -= len(value)
        return True

    def _evict_lru(self) -> None:
        _, value = self._entries.popitem(last=False)
        self._used_bytes -= len(value)
        self.stats.evictions += 1

    def load(self, items: Iterable[Tuple[str, bytes]]) -> None:
        """Bulk-restore a known-good fill into an empty cache.

        Equivalent to calling :meth:`set` once per pair — same
        insertion order, byte accounting, and ``sets`` counter — for
        fills already known to need no eviction (e.g. replaying a
        memoized pre-warm): one ``OrderedDict.update``.
        Requires an empty cache and distinct keys; raises
        ``ValueError`` on a repeated key or if the items exceed
        capacity, leaving the cache empty.
        """
        entries = self._entries
        if entries:
            raise ValueError("load() requires an empty cache")
        items = tuple(items)
        entries.update(items)
        if len(entries) != len(items):
            seen = set()
            for key, _ in items:
                if key in seen:
                    break
                seen.add(key)
            entries.clear()
            raise ValueError(f"load() got key {key!r} more than once")
        used = sum(map(len, entries.values()))
        if used > self.capacity_bytes:
            entries.clear()
            raise ValueError("loaded items exceed capacity")
        self._used_bytes = used
        self.stats.sets += len(items)

    def clear(self) -> int:
        """O(1) flush: drop every entry at once.

        Counters (hits/misses/evictions/sets) are preserved — a flush
        is an operator action, not cache pressure, so it must not
        distort hit-rate accounting.  Returns the number of entries
        dropped.
        """
        count = len(self._entries)
        self._entries.clear()
        self._used_bytes = 0
        return count

    def items_snapshot(self) -> Tuple[Tuple[str, bytes], ...]:
        """LRU-to-MRU snapshot of the entries (tests/debugging)."""
        return tuple(self._entries.items())
