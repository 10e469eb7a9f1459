"""In-memory cache substrate (Memcached/TAO model).

TaoBench is a read-through cache modeled after TAO, built on Memcached
with separate fast (hit) and slow (miss) thread pools.  This package
implements the actual data structures: a byte-bounded LRU store
(:class:`LruCache`), a Memcached-style command interface
(:class:`MemcachedServer`), and read-through logic
(:class:`ReadThroughCache`) with hit/miss dispatch statistics.
"""

from repro.cachelib.lru import CacheStats, LruCache
from repro.cachelib.memcached import MemcachedServer
from repro.cachelib.readthrough import LookAsideCache, ReadThroughCache

__all__ = [
    "LruCache",
    "CacheStats",
    "MemcachedServer",
    "ReadThroughCache",
    "LookAsideCache",
]
