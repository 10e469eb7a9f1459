"""Cost-model scheduling: ledger, LPT order, stealing.

The load-bearing invariants:

* LPT dispatch + queue-aware stealing produce merged ``SweepResult``s
  **byte-identical** to running each point in spec order with
  ``execute_point``, on the in-process and warm-pool paths alike —
  scheduling moves completion order, never bytes.
* A cold ledger prices a point at its simulated seconds, so points
  with equal windows keep spec order.
* The ledger degrades gracefully: corrupt sidecars load as empty,
  unwritable directories stop persistence without stopping the sweep.
"""

import json
import os
import warnings

import pytest

from repro.exec.cache import LEDGER_FILENAME, RunCache
from repro.exec.executor import (
    SweepExecutor,
    _cgroup_cpu_quota,
    auto_workers,
    execute_point,
)
from repro.exec.schedule import (
    SOURCE_CLASS,
    SOURCE_EXACT,
    SOURCE_SEED,
    CostLedger,
    order_lpt,
)
from repro.exec.shard import expand_shards
from repro.exec.spec import RunPoint, cost_class, run_fingerprint
from repro.exec.workerpool import WarmPool, shutdown_warm_pool

FAST = dict(measure_seconds=0.3, warmup_seconds=0.1)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def sweep_bytes(reports):
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]


class TestCostLedger:
    def test_prediction_specificity_ladder(self, tmp_path):
        """Exact fingerprint beats class aggregate beats the point's
        simulated seconds."""
        ledger = CostLedger(str(tmp_path))
        point = fast_point()
        fp = run_fingerprint(point)
        cold, source = ledger.predict_with_source(point, fp)
        assert source == SOURCE_SEED
        assert cold == pytest.approx(0.4)  # warmup 0.1 + measure 0.3

        # A sibling in the same class (different seed) feeds the class
        # aggregate, which now predicts our point too.
        sibling = fast_point(seed=99)
        ledger.record(run_fingerprint(sibling), sibling, 2.0)
        via_class, source = ledger.predict_with_source(point, fp)
        assert source == SOURCE_CLASS
        assert via_class == pytest.approx(2.0)

        ledger.record(fp, point, 4.0)
        exact, source = ledger.predict_with_source(point, fp)
        assert source == SOURCE_EXACT
        assert exact == pytest.approx(4.0)

    def test_ewma_update_and_class_aggregates(self, tmp_path):
        ledger = CostLedger(str(tmp_path))
        point = fast_point()
        fp = run_fingerprint(point)
        ledger.record(fp, point, 2.0)
        ledger.record(fp, point, 4.0)
        assert ledger.predict(point, fp) == pytest.approx(3.0)  # EWMA 0.5
        summary = ledger.workload_summary()
        assert summary["taobench"]["count"] == 2
        assert summary["taobench"]["max_s"] == pytest.approx(4.0)
        assert summary["taobench"]["mean_s"] == pytest.approx(3.0)

    def test_round_trip_and_merge_on_save(self, tmp_path):
        """Two ledger instances saving into one directory both keep
        their recordings — save merges with the file, not over it."""
        a = CostLedger(str(tmp_path))
        b = CostLedger(str(tmp_path))
        pa, pb = fast_point(), fast_point("feedsim")
        a.record(run_fingerprint(pa), pa, 1.0)
        b.record(run_fingerprint(pb), pb, 2.0)
        a.save()
        b.save()
        merged = CostLedger(str(tmp_path)).load()
        assert merged.entries() == 2
        assert merged.predict(pa, run_fingerprint(pa)) == pytest.approx(1.0)
        assert merged.predict(pb, run_fingerprint(pb)) == pytest.approx(2.0)

    def test_corrupt_sidecar_loads_empty_and_is_repaired(self, tmp_path):
        path = tmp_path / LEDGER_FILENAME
        path.write_text("{not json at all")
        ledger = CostLedger(str(tmp_path)).load()
        assert ledger.entries() == 0
        point = fast_point()
        # Predictions still work (simulated seconds) and a save
        # replaces the corrupt file with a valid one.
        assert ledger.predict(point) > 0
        ledger.record(run_fingerprint(point), point, 1.5)
        assert ledger.save() == str(path)
        assert CostLedger(str(tmp_path)).load().entries() == 1

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        # A regular file where the directory should be defeats even a
        # privileged user — os.makedirs cannot replace it.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        ledger = CostLedger(str(blocker / "nested"))
        point = fast_point()
        ledger.record(run_fingerprint(point), point, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ledger.save() is None
        assert any("cost ledger" in str(w.message) for w in caught)
        # Persistence is disabled for this instance, but the in-memory
        # history still predicts and further saves stay silent no-ops.
        assert ledger.directory is None
        assert ledger.predict(point, run_fingerprint(point)) == 1.0
        assert ledger.save() is None

    def test_interrupted_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """An interrupt mid-write removes the temp file: cache listings
        skip ``.tmp-*`` names, so a leaked one would never be reclaimed."""
        ledger = CostLedger(str(tmp_path))
        point = fast_point()
        ledger.record(run_fingerprint(point), point, 1.0)

        def interrupted_dump(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            ledger.save()
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_cold_ledger_prices_simulated_seconds(self):
        """No per-workload rate table: every workload, clean or
        faulted, costs its warmup plus measure window, and a shard
        sub-point costs its share of the parent's window."""
        ledger = CostLedger(None)
        for point in (
            fast_point("llmbench-chat"),
            fast_point("sparkbench", faults="blackout"),
        ):
            assert ledger.predict(point) == pytest.approx(0.4)
        long_window = fast_point(measure_seconds=1.5, warmup_seconds=0.5)
        assert ledger.predict(long_window) == pytest.approx(2.0)
        for sub in expand_shards(fast_point(shards=4)):
            assert ledger.predict(sub) == pytest.approx(0.1)

    def test_cold_ledger_keeps_spec_order_for_equal_windows(self):
        ledger = CostLedger(None)
        points = [
            fast_point(name, sku=sku)
            for sku in ("SKU1", "SKU2")
            for name in ("llmbench-chat", "djangobench", "aibench")
        ]
        todo = [(run_fingerprint(p), p) for p in points]
        ordered = order_lpt(
            todo, lambda fp, point: ledger.predict(point, fingerprint=fp)
        )
        assert ordered == todo

    def test_cost_class_groups_runs_correctly(self):
        a = fast_point(sku="SKU1", seed=1)
        b = fast_point(sku="SKU4", seed=9, kernel="6.4")
        assert cost_class(a) == cost_class(b)  # SKU/seed/kernel-free
        assert cost_class(a) != cost_class(fast_point(faults="blackout"))
        assert cost_class(a) != cost_class(
            fast_point(measure_seconds=0.7)
        )

    def test_ledger_is_not_a_cache_entry(self, tmp_path):
        """``cache info``/``clear`` must not count or delete the
        sidecar — only the CLI's explicit ledger clear does."""
        cache = RunCache(str(tmp_path))
        ledger = CostLedger(str(tmp_path))
        point = fast_point()
        ledger.record(run_fingerprint(point), point, 1.0)
        ledger.save()
        assert cache.info().entries == 0
        assert cache.clear() == 0
        assert os.path.exists(str(tmp_path / LEDGER_FILENAME))


class TestLptOrdering:
    def test_longest_predicted_first_stable_ties(self):
        points = [fast_point(seed=i) for i in range(4)]
        todo = [(run_fingerprint(p), p) for p in points]
        costs = {todo[0][0]: 1.0, todo[1][0]: 5.0,
                 todo[2][0]: 1.0, todo[3][0]: 3.0}
        ordered = order_lpt(todo, lambda fp, point: costs[fp])
        assert [costs[fp] for fp, _ in ordered] == [5.0, 3.0, 1.0, 1.0]
        # Equal-cost points keep spec order (seed 0 before seed 2).
        assert [p.seed for _, p in ordered] == [1, 3, 0, 2]


class TestSchedulingByteIdentity:
    """LPT + stealing vs spec order (FIFO): identical merged results.

    The reference runs every point with ``execute_point`` in spec
    order; each sweep below dispatches longest-predicted-first.
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
                fast_point("mediawiki", sku="SKU2"),
            ]
        return cls.POINTS

    @pytest.fixture(scope="class")
    def spec_order_reference(self):
        return sweep_bytes(execute_point(p) for p in self.points())

    def test_inproc_lpt_matches_fifo(self, spec_order_reference):
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

    def test_warm_ledger_does_not_change_bytes(self, tmp_path,
                                               spec_order_reference):
        """A sweep scheduled from recorded history (not simulated
        seconds) still merges to the same bytes."""
        ledger = CostLedger(str(tmp_path))
        for point in self.points():
            ledger.record(
                run_fingerprint(point), point,
                2.0 if point.benchmark == "djangobench" else 0.2,
            )
        executor = SweepExecutor(
            max_workers=1, cache=None, use_cache=False, ledger=ledger
        )
        assert sweep_bytes(executor.run(self.points())) == spec_order_reference


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
            completed, lost, _, run = pool.run_points(
                todo, workers=2, predict=lambda fp, point: 1.0
            )
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
    def test_cold_ledger_keeps_plain_counts(self):
        executor = SweepExecutor(
            max_workers=1, cache=None, use_cache=False,
            ledger=CostLedger(None),
        )
        seen = []
        executor.run(
            [fast_point(seed=21), fast_point("feedsim", seed=21)],
            on_point=lambda p, r: seen.append(executor.progress()),
        )
        assert [s["done"] for s in seen] == [1, 2]
        assert all(s["total"] == 2 for s in seen)
        assert all(s["eta_seconds"] is None for s in seen)

    def test_warm_ledger_produces_eta(self):
        points = [fast_point(seed=22), fast_point("feedsim", seed=22)]
        ledger = CostLedger(None)
        for point in points:
            ledger.record(run_fingerprint(point), point, 0.5)
        executor = SweepExecutor(
            max_workers=1, cache=None, use_cache=False, ledger=ledger
        )
        seen = []
        executor.run(
            points, on_point=lambda p, r: seen.append(executor.progress())
        )
        # After the first of two 0.5s-predicted points, ~0.5s remains;
        # after the last, the ETA has drained to zero.
        assert seen[0]["eta_seconds"] == pytest.approx(0.5)
        assert seen[-1]["eta_seconds"] == pytest.approx(0.0)

    def test_ledger_records_during_sweeps(self, tmp_path):
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        executor.run([fast_point(seed=23)])
        assert executor.last_stats.ledger_recorded == 1
        assert os.path.exists(str(tmp_path / LEDGER_FILENAME))
        # A fully cached rerun records nothing new.
        rerun = SweepExecutor(max_workers=1, cache=RunCache(str(tmp_path)))
        rerun.run([fast_point(seed=23)])
        assert rerun.last_stats.ledger_recorded == 0
