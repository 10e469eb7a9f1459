"""Warm worker pool: reuse, keying, crash/timeout recovery, teardown.

These tests exercise :mod:`repro.exec.workerpool` both directly (pool
semantics) and through :class:`SweepExecutor` (the ``pool_mode="warm"``
path), including the satellite regressions: per-worker kill-and-respawn
on timeout (no straggler processes) and clean ``close()`` teardown.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.exec.executor import SweepExecutor, _run_point_payload
from repro.exec.serialize import dict_to_bytes
from repro.exec.spec import RunPoint, pool_key, run_fingerprint
from repro.exec.workerpool import WarmPool, get_warm_pool, shutdown_warm_pool

FAST = dict(measure_seconds=0.3, warmup_seconds=0.1)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def as_todo(points):
    return [(run_fingerprint(p), p) for p in points]


def assert_dead(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture
def pool():
    p = WarmPool()
    yield p
    p.close()


class TestWarmPoolLifecycle:
    def test_spawn_then_reuse(self, pool):
        points = [fast_point(), fast_point("feedsim")]
        _, _, _, first = pool.run_points(as_todo(points), workers=2)
        assert first.spawned == 2 and first.reused == 0
        pids = set(pool.worker_pids())
        assert len(pids) == 2

        _, _, _, second = pool.run_points(as_todo(points), workers=2)
        assert second.spawned == 0 and second.reused == 2
        assert set(pool.worker_pids()) == pids
        assert pool.stats.spawned == 2 and pool.stats.reused == 2

    def test_close_leaves_no_orphans(self):
        pool = WarmPool()
        pool.run_points(as_todo([fast_point()]), workers=1)
        pids = pool.worker_pids()
        assert pids and pool.alive_count() == 1
        pool.close()
        assert pool.closed
        assert pool.alive_count() == 0
        assert_dead(pids)

    def test_closed_pool_rejects_work(self, pool):
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_points(as_todo([fast_point()]), workers=1)

    def test_global_pool_survives_executor_instances(self):
        """The pool outlives SweepExecutor objects: a second executor's
        sweep reuses the first's warm workers."""
        shutdown_warm_pool()
        try:
            points = [fast_point(), fast_point("feedsim")]
            first = SweepExecutor(max_workers=2, cache=None, use_cache=False)
            first.run(points)
            assert first.last_stats.pool_mode == "warm"
            assert first.last_stats.spawned == 2

            second = SweepExecutor(max_workers=2, cache=None, use_cache=False)
            second.run(points)
            assert second.last_stats.spawned == 0
            assert second.last_stats.reused == 2
        finally:
            shutdown_warm_pool()

    def test_shutdown_global_pool_idempotent(self):
        shutdown_warm_pool()
        pool = get_warm_pool()
        pool.run_points(as_todo([fast_point()]), workers=1)
        pids = pool.worker_pids()
        shutdown_warm_pool()
        shutdown_warm_pool()
        assert_dead(pids)
        assert get_warm_pool() is not pool


class TestWorkerKeying:
    def test_stale_key_workers_self_retire(self, pool):
        todo = as_todo([fast_point()])
        pool.run_points(todo, workers=1, key="key-A")
        old_pids = pool.worker_pids()
        _, _, _, run = pool.run_points(todo, workers=1, key="key-B")
        assert run.spawned == 1 and run.reused == 0
        assert_dead(old_pids)
        assert pool.worker_pids() != old_pids

    def test_default_key_is_model_plus_code(self, pool):
        pool.run_points(as_todo([fast_point()]), workers=1)
        assert all(w.key == pool_key() for w in pool._workers)

    def test_dead_worker_replaced_on_next_acquire(self, pool):
        pool.run_points(as_todo([fast_point()]), workers=1)
        (pid,) = pool.worker_pids()
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool.alive_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        _, _, _, run = pool.run_points(as_todo([fast_point()]), workers=1)
        assert run.spawned == 1 and run.reused == 0
        assert pool.worker_pids() != [pid]


class TestTransport:
    def test_many_results_ride_one_worker_pipe(self):
        """Five results back to back through one worker's pipe arrive
        intact, each shipped as its pipe-codec (pickle) encoding."""
        points = [fast_point(seed=s) for s in range(5)]
        pool = WarmPool()
        try:
            completed, lost, timeouts, run = pool.run_points(
                as_todo(points), workers=1
            )
            assert not lost and timeouts == 0
            assert len(completed) == 5
        finally:
            pool.close()
        expected = {
            run_fingerprint(p): _run_point_payload(p) for p in points
        }
        assert {
            fp: json.dumps(v, sort_keys=True) for fp, v in completed.items()
        } == {fp: json.dumps(v, sort_keys=True) for fp, v in expected.items()}
        # A pickle's length depends on which equal strings are one
        # object, which can differ between processes; re-encoding the
        # decoded payloads reproduces the shipped lengths exactly.
        assert run.bytes_shipped == sum(
            len(dict_to_bytes(payload)) for payload in completed.values()
        )


class TestAffinityDispatch:
    def test_repeat_sweep_routes_to_warm_worker(self, pool):
        """Dispatch prefers the worker that has run a workload before:
        per-process warm-setup memos make repeats much cheaper, so a
        repeated sweep must land each point on its original worker even
        when the spec order changes."""
        points = [fast_point("taobench"), fast_point("feedsim")]
        pool.run_points(as_todo(points), workers=2)
        seen_after_first = [set(w.seen) for w in pool._workers]
        # Two points over two workers: initial dispatch assigns one
        # each, so every worker has exactly one workload.
        assert sorted(len(s) for s in seen_after_first) == [1, 1]

        # Reversed order: plain spec-order dispatch would swap the
        # assignment and every worker would pay the other workload's
        # warm-up.
        pool.run_points(as_todo(list(reversed(points))), workers=2)
        assert [set(w.seen) for w in pool._workers] == seen_after_first

    def test_respawned_worker_starts_cold(self, pool):
        point = fast_point()
        pool.run_points(as_todo([point]), workers=1)
        worker = pool._workers[0]
        assert worker.seen == {point.workload_name}
        replacement = pool._respawn(worker, pool.stats)
        assert replacement.seen == set()


class TestCrashRecovery:
    def test_midflight_crash_respawns_only_that_worker(self, pool, monkeypatch):
        """SIGKILL one of two busy workers: its point is lost, the other
        worker's point completes, and only the dead worker respawns."""
        monkeypatch.setenv("DCPERF_FAULT_POINT_DELAY", "2.0")
        points = [fast_point(), fast_point("feedsim")]
        # Prime two workers (no delay inside this first call: the env
        # var is read at dispatch, so clear it temporarily).
        monkeypatch.delenv("DCPERF_FAULT_POINT_DELAY")
        pool.run_points(as_todo(points), workers=2)
        monkeypatch.setenv("DCPERF_FAULT_POINT_DELAY", "2.0")
        victim = pool.worker_pids()[0]
        survivor = pool.worker_pids()[1]
        killer = threading.Timer(0.5, os.kill, [victim, signal.SIGKILL])
        killer.start()
        try:
            completed, lost, timeouts, run = pool.run_points(
                as_todo(points), workers=2
            )
        finally:
            killer.cancel()
        assert timeouts == 0
        assert len(lost) == 1 and len(completed) == 1
        assert run.respawned == 1
        assert survivor in pool.worker_pids()
        assert victim not in pool.worker_pids()

    def test_app_level_exception_propagates_and_pool_survives(self, pool):
        bad = RunPoint(benchmark="no_such_benchmark", **FAST)
        with pytest.raises(Exception):
            pool.run_points(as_todo([bad]), workers=1)
        # The pool is still usable afterwards.
        completed, lost, timeouts, _ = pool.run_points(
            as_todo([fast_point()]), workers=1
        )
        assert len(completed) == 1 and not lost and timeouts == 0


class TestTimeoutKillsStraggler:
    """Satellite regression: a timed-out point's worker is killed and
    respawned instead of leaking until interpreter exit."""

    def test_straggler_killed_and_respawned(self, monkeypatch):
        monkeypatch.setenv("DCPERF_FAULT_POINT_DELAY", "30.0")
        pool = WarmPool()
        try:
            points = [fast_point(), fast_point("feedsim")]
            started = time.monotonic()
            completed, lost, timeouts, run = pool.run_points(
                as_todo(points), workers=2, timeout_s=0.5
            )
            elapsed = time.monotonic() - started
            assert timeouts == 2 and len(lost) == 2 and not completed
            assert run.respawned == 2
            # Stragglers died with their deadline, not with the 30s
            # sleep: the whole call is bounded by the timeout plus
            # respawn cost.
            assert elapsed < 10.0
            assert pool.alive_count() == 2
        finally:
            pids = pool.worker_pids()
            pool.close()
            assert_dead(pids)

    def test_executor_warm_timeout_recovers_in_process(self, monkeypatch):
        """End-to-end: warm path timeout → kill/respawn → in-process
        recovery."""
        monkeypatch.setenv("DCPERF_FAULT_POINT_DELAY", "5.0")
        executor = SweepExecutor(
            max_workers=2, cache=None, use_cache=False, point_timeout_s=0.5
        )
        points = [fast_point(), fast_point("feedsim")]

        original = SweepExecutor._run_warm

        def warm_then_clear_delay(self, todo, workers, stats, on_point,
                                  **kwargs):
            result = original(self, todo, workers, stats, on_point, **kwargs)
            os.environ.pop("DCPERF_FAULT_POINT_DELAY", None)
            return result

        monkeypatch.setattr(SweepExecutor, "_run_warm", warm_then_clear_delay)
        reports = executor.run(points)
        stats = executor.last_stats
        assert stats.pool_mode == "warm"
        assert stats.timeouts == 2
        assert stats.recovered == 2
        assert stats.respawned == 2
        assert [r.benchmark for r in reports] == ["taobench", "feedsim"]
        assert all(r.metric_value > 0 for r in reports)
        # No straggler outlived the sweep: every live pool process is
        # a respawned worker, idle.
        assert get_warm_pool().alive_count() == 2


class TestExecutorWarmPath:
    def test_warm_matches_serial_byte_for_byte(self):
        points = [
            fast_point("taobench", sku="SKU1"),
            fast_point("taobench", sku="SKU2"),
            fast_point("feedsim", sku="SKU1"),
            fast_point("feedsim", sku="SKU2"),
        ]
        serial = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        warm = SweepExecutor(max_workers=4, cache=None, use_cache=False)
        serial_reports = serial.run(points)
        warm_reports = warm.run(points)
        assert warm.last_stats.pool_mode == "warm"
        assert warm.last_stats.workers == 4
        assert warm.last_stats.bytes_shipped > 0
        assert [json.dumps(r.as_dict(), sort_keys=True) for r in serial_reports] == [
            json.dumps(r.as_dict(), sort_keys=True) for r in warm_reports
        ]

    def test_on_point_streams_every_unique_point(self):
        points = [fast_point(), fast_point("feedsim"), fast_point()]
        streamed = []
        executor = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        reports = executor.run(
            points, on_point=lambda p, r: streamed.append((p, r))
        )
        # Unique points only (the duplicate taobench point streams once).
        assert sorted(p.benchmark for p, _ in streamed) == [
            "feedsim",
            "taobench",
        ]
        by_name = {p.benchmark: r for p, r in streamed}
        for report in reports:
            assert (
                by_name[report.benchmark].as_dict() == report.as_dict()
            )
            # Streamed objects are distinct from the merged results
            # (callers mutate .score in place).
            assert by_name[report.benchmark] is not report

    def test_on_point_fires_for_cache_hits(self, tmp_path):
        from repro.exec.cache import RunCache

        point = fast_point()
        executor = SweepExecutor(
            max_workers=1, cache=RunCache(str(tmp_path))
        )
        executor.run([point])
        streamed = []
        executor.run([point], on_point=lambda p, r: streamed.append(p))
        assert executor.last_stats.cache_hits == 1
        assert streamed == [point]
