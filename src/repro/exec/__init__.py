"""Sweep execution subsystem: parallel fan-out plus a persistent cache.

The paper's methodology is one large cross-product sweep — benchmarks
x SKUs x kernels x ablations — and DCPerf itself parallelizes
benchmark instances across many-core hosts (Section 2.2).  This
package makes every sweep in the repo parallel and memoized:

* :class:`~repro.exec.spec.RunPoint` — one immutable point of the
  sweep grid, content-fingerprinted for caching.
* :class:`~repro.exec.cache.RunCache` — a persistent JSON store of
  finished :class:`~repro.core.benchmark.BenchmarkReport`s, keyed by
  run fingerprint (which covers the model parameters and the package
  source, so any edit invalidates stale entries).
* :class:`~repro.exec.executor.SweepExecutor` — expands, deduplicates,
  runs points in-process or on the warm pool, and merges results back
  in spec order so parallel output is identical to serial.
* :class:`~repro.exec.workerpool.WarmPool` — a process-global pool of
  persistent, fingerprint-keyed worker processes that send binary-
  encoded results back over their pipes; repeated sweeps reuse warm
  workers.
* :mod:`repro.exec.schedule` — cost-model-driven scheduling: a
  persistent :class:`~repro.exec.schedule.CostLedger` of measured
  per-point wall times feeds longest-predicted-first dispatch and
  queue-aware stealing, so the makespan of an imbalanced sweep is
  optimized, not accidental.
* :mod:`repro.exec.shard` — splits one ``shards=N`` run into N shard
  environments and merges their reports into one.
"""

from repro.exec.cache import RunCache, cache_from_env, default_cache_dir
from repro.exec.executor import (
    SweepExecutor,
    SweepStats,
    auto_workers,
    execute_point,
)
from repro.exec.schedule import CostLedger, ledger_for_cache, order_lpt
from repro.exec.serialize import (
    report_from_bytes,
    report_from_dict,
    report_to_bytes,
    report_to_dict,
)
from repro.exec.spec import (
    RunPoint,
    code_fingerprint,
    expand_grid,
    model_fingerprint,
    pool_key,
    run_fingerprint,
)
from repro.exec.workerpool import WarmPool, get_warm_pool, shutdown_warm_pool

__all__ = [
    "CostLedger",
    "RunCache",
    "RunPoint",
    "SweepExecutor",
    "SweepStats",
    "WarmPool",
    "auto_workers",
    "cache_from_env",
    "code_fingerprint",
    "default_cache_dir",
    "execute_point",
    "expand_grid",
    "get_warm_pool",
    "ledger_for_cache",
    "order_lpt",
    "model_fingerprint",
    "pool_key",
    "report_from_bytes",
    "report_from_dict",
    "report_to_bytes",
    "report_to_dict",
    "run_fingerprint",
    "shutdown_warm_pool",
]
