"""Executor hardening: timeouts, worker-crash recovery, partial resume,
and graceful cache degradation.

These drive :class:`SweepExecutor` end to end: points the warm pool
loses (timeout or crash) must come back from the in-process re-run
byte-identical to a serial sweep.  The pool's own per-worker
kill-and-respawn is pinned in ``test_workerpool.py``."""

import json
import os
import stat

import pytest

from repro.exec.cache import RunCache, cache_from_env
from repro.exec.executor import SweepExecutor, _run_point_payload
from repro.exec.spec import RunPoint, run_fingerprint
from repro.exec.workerpool import PoolRunStats, WarmPool

FAST = dict(measure_seconds=0.5, warmup_seconds=0.2)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def sweep_bytes(reports):
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]


def lose_every_point(self, todo, workers, **kwargs):
    """Stand-in for ``WarmPool.run_points`` whose workers all died."""
    return {}, list(todo), 0, PoolRunStats(workers=workers)


class TestPointTimeout:
    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            SweepExecutor(point_timeout_s=0)
        with pytest.raises(ValueError):
            SweepExecutor(point_timeout_s=-1.0)

    def test_timed_out_points_recovered_in_process(self, monkeypatch):
        # The env var propagates into pool workers (a monkeypatch would
        # not); the recovery re-run happens in-process where the same
        # env var applies, so drop it before the executor falls back.
        # Two distinct points are needed: a one-point grid clamps the
        # worker count to 1 and takes the serial (unpooled) path.
        points = [fast_point(), fast_point("feedsim")]
        serial = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        expected = sweep_bytes(serial.run(points))

        monkeypatch.setenv("DCPERF_FAULT_POINT_DELAY", "5.0")
        executor = SweepExecutor(
            max_workers=2, cache=None, use_cache=False, point_timeout_s=0.5
        )
        original = WarmPool.run_points

        def pooled_then_clear_delay(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            os.environ.pop("DCPERF_FAULT_POINT_DELAY", None)
            return result

        monkeypatch.setattr(WarmPool, "run_points", pooled_then_clear_delay)
        reports = executor.run(points)
        stats = executor.last_stats
        assert stats.timeouts == 2
        assert stats.recovered == 2
        assert stats.pool_mode == "warm"
        assert sweep_bytes(reports) == expected

    def test_no_timeout_no_recovery(self):
        executor = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        executor.run([fast_point()])
        stats = executor.last_stats
        assert stats.timeouts == 0
        assert stats.recovered == 0


class TestWorkerCrashRecovery:
    def test_broken_pool_points_rerun_in_process(self, monkeypatch):
        """When the pool loses every point, each one is recovered
        in-process and the sweep still returns a full result set."""
        monkeypatch.setattr(WarmPool, "run_points", lose_every_point)
        executor = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        points = [fast_point(), fast_point("feedsim")]
        reports = executor.run(points)
        assert executor.last_stats.pool_mode == "warm"
        assert executor.last_stats.recovered == 2
        assert [r.benchmark for r in reports] == ["taobench", "feedsim"]
        assert all(r.metric_value > 0 for r in reports)

    def test_recovered_reports_match_serial(self, monkeypatch):
        # Two points, so the two-worker sweep takes the pool path.
        points = [fast_point(), fast_point(seed=8)]
        serial = SweepExecutor(
            max_workers=1, cache=None, use_cache=False
        ).run(points)

        monkeypatch.setattr(WarmPool, "run_points", lose_every_point)
        executor = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        recovered = executor.run(points)
        assert executor.last_stats.recovered == 2
        assert sweep_bytes(recovered) == sweep_bytes(serial)

    def test_app_level_exception_still_propagates(self):
        executor = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        with pytest.raises(Exception):
            executor.run([RunPoint(benchmark="no_such_benchmark", **FAST)])


class TestPartialResume:
    def test_finished_points_cached_incrementally(self, tmp_path, monkeypatch):
        """A sweep that dies mid-way must keep its finished points: the
        cache write happens per point, not in bulk at the end."""
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        points = [fast_point(), fast_point("feedsim")]

        # Kill the sweep after the first point completes.
        calls = []
        original = _run_point_payload

        def run_then_die(point):
            if calls:
                raise KeyboardInterrupt("sweep killed mid-way")
            calls.append(point)
            return original(point)

        monkeypatch.setattr(
            "repro.exec.executor._run_point_payload", run_then_die
        )
        with pytest.raises(KeyboardInterrupt):
            executor.run(points)

        # The first point survived on disk...
        assert cache.get(run_fingerprint(points[0])) is not None
        # ...so the restart only re-runs the second.
        monkeypatch.undo()
        resumed = SweepExecutor(max_workers=1, cache=RunCache(str(tmp_path)))
        reports = resumed.run(points)
        assert resumed.last_stats.cache_hits == 1
        assert resumed.last_stats.executed == 1
        assert [r.benchmark for r in reports] == ["taobench", "feedsim"]

    def test_resumed_reports_match_uninterrupted(self, tmp_path):
        points = [fast_point(), fast_point("feedsim")]
        clean = SweepExecutor(
            max_workers=1, cache=None, use_cache=False
        ).run(points)
        resumed = SweepExecutor(
            max_workers=1, cache=RunCache(str(tmp_path))
        ).run(points)
        assert [r.as_dict() for r in clean] == [r.as_dict() for r in resumed]


class TestCacheGracefulDegrade:
    def test_put_to_impossible_dir_disables_cache(self, tmp_path):
        """A cache directory blocked by a plain file degrades to a
        warned no-op — works even as root, where chmod is advisory."""
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("occupied")
        cache = RunCache(str(blocker / "sub"))
        point = fast_point()
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            assert cache.put("deadbeef", point, {"x": 1}) is None
        assert cache.disabled
        # Subsequent operations are silent no-ops, not repeat warnings.
        assert cache.put("deadbeef", point, {"x": 1}) is None
        assert cache.get("deadbeef") is None

    def test_put_to_unwritable_dir_disables_cache(self, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
        if os.access(target, os.W_OK):  # running as root: chmod is moot
            pytest.skip("cannot create an unwritable directory here")
        cache = RunCache(str(target))
        point = fast_point()
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            path = cache.put("deadbeef", point, {"x": 1})
        assert path is None
        assert cache.disabled
        # Subsequent operations are silent no-ops, not repeat warnings.
        assert cache.put("deadbeef", point, {"x": 1}) is None
        assert cache.get("deadbeef") is None
        os.chmod(target, stat.S_IRWXU)

    def test_disabled_cache_does_not_sink_sweep(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cache.disabled = True
        executor = SweepExecutor(max_workers=1, cache=cache)
        reports = executor.run([fast_point()])
        assert len(reports) == 1
        assert reports[0].metric_value > 0

    def test_cache_from_env_degrades_on_bad_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv("DCPERF_CACHE_DIR", str(blocker / "sub"))
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            assert cache_from_env() is None

    def test_cache_from_env_disabled_flag(self, monkeypatch):
        monkeypatch.setenv("DCPERF_CACHE", "0")
        assert cache_from_env() is None
