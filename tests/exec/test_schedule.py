"""Sweep scheduling: longest-first order by simulated seconds, stealing.

The load-bearing invariants:

* LPT dispatch + queue-aware stealing produce merged ``SweepResult``s
  **byte-identical** to running each point in spec order with
  ``execute_point``, on the in-process and warm-pool paths alike —
  scheduling moves completion order, never bytes.
* A point is priced at its simulated seconds, so points with equal
  windows keep spec order.
* Per-point wall times stay in memory: no sweep writes a sidecar.
"""

import json
import os

import pytest

from repro.exec.cache import RunCache
from repro.exec.executor import (
    SweepExecutor,
    _cgroup_cpu_quota,
    auto_workers,
    execute_point,
)
from repro.exec.schedule import order_lpt, seed_cost
from repro.exec.shard import expand_shards
from repro.exec.spec import CACHE_SCHEMA_VERSION, RunPoint, run_fingerprint
from repro.exec.workerpool import WarmPool, shutdown_warm_pool

FAST = dict(measure_seconds=0.3, warmup_seconds=0.1)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def sweep_bytes(reports):
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]


class TestCostLedger:
    """Pricing: every sweep prices its points as a cold ledger did."""

    def test_cold_ledger_prices_simulated_seconds(self):
        """No per-workload rate table: every workload, clean or
        faulted, costs its warmup plus measure window, and a shard
        sub-point costs its share of the parent's window."""
        for point in (
            fast_point("llmbench-chat"),
            fast_point("sparkbench", faults="blackout"),
        ):
            assert seed_cost(point) == pytest.approx(0.4)
        long_window = fast_point(measure_seconds=1.5, warmup_seconds=0.5)
        assert seed_cost(long_window) == pytest.approx(2.0)
        for sub in expand_shards(fast_point(shards=4)):
            assert seed_cost(sub) == pytest.approx(0.1)

    def test_cold_ledger_keeps_spec_order_for_equal_windows(self):
        points = [
            fast_point(name, sku=sku)
            for sku in ("SKU1", "SKU2")
            for name in ("llmbench-chat", "djangobench", "aibench")
        ]
        todo = [(run_fingerprint(p), p) for p in points]
        assert order_lpt(todo) == todo


class TestLptOrdering:
    def test_longest_predicted_first_stable_ties(self):
        windows = [1.0, 5.0, 1.0, 3.0]
        points = [
            fast_point(seed=i, measure_seconds=w, warmup_seconds=0.0)
            for i, w in enumerate(windows)
        ]
        ordered = order_lpt([(run_fingerprint(p), p) for p in points])
        assert [seed_cost(p) for _, p in ordered] == [5.0, 3.0, 1.0, 1.0]
        # Equal-cost points keep spec order (seed 0 before seed 2).
        assert [p.seed for _, p in ordered] == [1, 3, 0, 2]


class TestSchedulingByteIdentity:
    """LPT + stealing vs spec order (FIFO): identical merged results.

    The reference runs every point with ``execute_point`` in spec
    order; each sweep below dispatches longest-first, which moves the
    straggler that sits last in spec order to the front.
    """

    POINTS = None

    @classmethod
    def points(cls):
        if cls.POINTS is None:
            cls.POINTS = [
                fast_point("taobench", sku="SKU1"),
                fast_point("feedsim", sku="SKU2"),
                fast_point("djangobench", sku="SKU1"),
                fast_point("taobench", sku="SKU3"),
                fast_point("mediawiki", sku="SKU2", measure_seconds=0.6),
            ]
        return cls.POINTS

    @pytest.fixture(scope="class")
    def spec_order_reference(self):
        return sweep_bytes(execute_point(p) for p in self.points())

    def test_inproc_lpt_matches_fifo(self, spec_order_reference):
        todo = [(run_fingerprint(p), p) for p in self.points()]
        assert order_lpt(todo)[0] == todo[-1]
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        assert sweep_bytes(executor.run(self.points())) == spec_order_reference

    def test_warm_pool_lpt_matches_fifo(self, spec_order_reference):
        shutdown_warm_pool()
        try:
            executor = SweepExecutor(
                max_workers=3, cache=None, use_cache=False
            )
            reports = executor.run(self.points())
            assert executor.last_stats.pool_mode == "warm"
            assert sweep_bytes(reports) == spec_order_reference
        finally:
            shutdown_warm_pool()


class TestQueueAwareStealing:
    def test_idle_worker_steals_affinity_bound_head(self):
        """Two workers, one affine: the second worker takes the
        affine-bound head instead of idling, and the steal is
        counted."""
        pool = WarmPool()
        try:
            warmup = fast_point(seed=1)
            pool.run_points(
                [(run_fingerprint(warmup), warmup)], workers=1
            )
            assert pool.alive_count() == 1
            todo = [
                (run_fingerprint(p), p)
                for p in (fast_point(seed=2), fast_point(seed=3))
            ]
            completed, lost, _, run = pool.run_points(todo, workers=2)
            assert not lost and len(completed) == 2
            assert run.steals >= 1
        finally:
            pool.close()


class TestAutoWorkersLimits:
    def test_respects_sched_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", lambda: None
        )
        assert auto_workers() == 2

    def test_cgroup_quota_clamps_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", lambda: 3
        )
        assert auto_workers() == 3

    def test_cgroup_cpu_max_parsing(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("150000 100000\n")
        assert _cgroup_cpu_quota(str(path)) == 2
        path.write_text("max 100000\n")
        assert _cgroup_cpu_quota(str(path)) is None
        path.write_text("garbage\n")
        assert _cgroup_cpu_quota(str(path)) is None
        assert _cgroup_cpu_quota(str(tmp_path / "missing")) is None

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", lambda: 1
        )
        assert auto_workers() == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        # macOS/Windows: os.sched_getaffinity does not exist at all.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", lambda: None
        )
        assert auto_workers() == 6

    def test_cpu_count_none_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", lambda: None
        )
        assert auto_workers() == 1

    def test_quota_probe_is_linux_only(self, monkeypatch):
        # On a non-Linux platform the cgroup pseudo-file is never
        # consulted, even if a same-named path would parse.
        import repro.exec.executor as executor_mod

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(executor_mod.sys, "platform", "darwin")

        def boom():
            raise AssertionError("cgroup probe ran on a non-Linux platform")

        monkeypatch.setattr(
            "repro.exec.executor._cgroup_cpu_quota", boom
        )
        assert auto_workers() == 8


class TestProgressEta:
    """Progress is plain ``done``/``total`` counts; per-point wall
    times stay in :attr:`SweepExecutor.ledger`."""

    def test_cold_ledger_keeps_plain_counts(self):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        seen = []
        executor.run(
            [fast_point(seed=21), fast_point("feedsim", seed=21)],
            on_point=lambda p, r: seen.append(executor.progress()),
        )
        assert seen == [{"done": 1, "total": 2}, {"done": 2, "total": 2}]

    def test_ledger_records_during_sweeps(self, tmp_path):
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        points = [fast_point(seed=23), fast_point(seed=24, shards=2)]
        executor.run(points)
        assert executor.last_stats.executed == 3  # a plain point, 2 shards
        times = executor.ledger.by_fingerprint
        assert len(times) == 3
        assert all(entry["seconds"] > 0 for entry in times.values())
        # A fully cached rerun records nothing.
        rerun = SweepExecutor(max_workers=1, cache=RunCache(str(tmp_path)))
        rerun.run(points)
        assert rerun.last_stats.executed == 0
        assert rerun.ledger.by_fingerprint == {}
        # The directory holds the 4 cache entries (2 points, 2 shards)
        # and no cost ledger sidecar.
        assert not os.path.exists(str(tmp_path / "cost_ledger.json"))
        assert cache.info().by_schema == {str(CACHE_SCHEMA_VERSION): 4}
