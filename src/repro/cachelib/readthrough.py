"""Read-through and look-aside cache policies.

Section 2.2 of the paper calls out a fidelity-critical design choice:
"while many caching benchmarks implement a look-aside cache, DCPerf
uses a read-through cache because our production systems employ it."
Both policies are implemented here so the ablation benchmark can show
why the distinction matters: in a read-through cache the *server* owns
the miss path (backend fetch + SET happen inside the cache tier, on
the slow thread pool), while look-aside pushes that work to clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.cachelib.memcached import MemcachedServer

#: Fetches the authoritative value for a key (the "database").
BackendFetch = Callable[[str], bytes]


@dataclass
class DispatchStats:
    """Counts of fast-path (hit) and slow-path (miss) dispatches."""

    fast_path: int = 0
    slow_path: int = 0

    @property
    def total(self) -> int:
        return self.fast_path + self.slow_path

    @property
    def hit_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.fast_path / self.total


class ReadThroughCache:
    """TAO-style read-through cache with fast/slow path dispatch.

    ``get`` always returns a value: hits return from Memcached (fast
    path), misses fetch from the backend, insert, and return (slow
    path).  The caller learns which path ran so a workload model can
    route the request to the right thread pool.
    """

    def __init__(self, server: MemcachedServer, backend: BackendFetch) -> None:
        self.server = server
        self.backend = backend
        self.stats = DispatchStats()

    def get(self, key: str) -> Tuple[bytes, bool]:
        """Return (value, was_hit)."""
        value = self.server.get(key)
        if value is not None:
            self.stats.fast_path += 1
            return value, True
        self.stats.slow_path += 1
        value = self.backend(key)
        self.server.set(key, value)
        return value, False

    def invalidate(self, key: str) -> bool:
        """Drop a key after a write (TAO's write-invalidate)."""
        return self.server.delete(key)


class LookAsideCache:
    """The conventional look-aside policy, for the ablation benchmark.

    ``get`` returns None on miss; the *client* is responsible for
    fetching from the backend and calling :meth:`fill`.  This shifts
    miss-path work (and its RPC round trips) out of the cache tier —
    exactly the architectural difference DCPerf corrects for.
    """

    def __init__(self, server: MemcachedServer) -> None:
        self.server = server
        self.stats = DispatchStats()

    def get(self, key: str) -> Optional[bytes]:
        value = self.server.get(key)
        if value is not None:
            self.stats.fast_path += 1
        else:
            self.stats.slow_path += 1
        return value

    def fill(self, key: str, value: bytes) -> None:
        """Client-side fill after a backend fetch."""
        self.server.set(key, value)
