"""Tests for the sweep executor: dedup, caching, determinism."""

import pytest

from repro.core.suite import DCPerfSuite
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor, auto_workers, execute_point
from repro.exec.spec import RunPoint

FAST = dict(measure_seconds=0.5, warmup_seconds=0.2)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


class TestSweepExecutor:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)

    def test_auto_workers_positive(self):
        assert auto_workers() >= 1

    def test_dedupes_repeated_points(self):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        point = fast_point()
        reports = executor.run([point, point, point])
        stats = executor.last_stats
        assert stats.total_points == 3
        assert stats.unique_points == 1
        assert stats.executed == 1
        assert stats.pool_mode == "inproc"
        assert stats.workers == 1
        assert len(reports) == 3
        # Fresh object per position: scoring mutates .score in place.
        assert len({id(r) for r in reports}) == 3
        assert reports[0].as_dict() == reports[1].as_dict()

    def test_preserves_spec_order(self):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        points = [fast_point("feedsim"), fast_point("taobench")]
        reports = executor.run(points)
        assert [r.benchmark for r in reports] == ["feedsim", "taobench"]

    def test_cache_round_trip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        point = fast_point()
        first = executor.run([point])
        assert executor.last_stats.executed == 1
        assert executor.last_stats.cache_hits == 0

        second = executor.run([point])
        assert executor.last_stats.executed == 0
        assert executor.last_stats.cache_hits == 1
        assert first[0].as_dict() == second[0].as_dict()

    def test_cached_report_identical_across_instances(self, tmp_path):
        """A payload loaded from disk must decode to the same report
        the original run produced — the codec is lossless."""
        cache_dir = str(tmp_path)
        point = fast_point("feedsim")
        fresh = SweepExecutor(
            max_workers=1, cache=RunCache(cache_dir)
        ).run([point])
        warm = SweepExecutor(
            max_workers=1, cache=RunCache(cache_dir)
        ).run([point])
        assert fresh[0].as_dict() == warm[0].as_dict()

    def test_execute_point_matches_executor(self):
        point = fast_point()
        via_executor = SweepExecutor(
            max_workers=1, cache=None, use_cache=False
        ).run([point])[0]
        direct = execute_point(point)
        assert direct.as_dict() == via_executor.as_dict()


class TestParallelDeterminism:
    """Parallel output is byte-identical to serial output."""

    def test_pooled_matches_serial(self):
        points = [
            fast_point("taobench", sku="SKU1"),
            fast_point("taobench", sku="SKU2"),
            fast_point("feedsim", sku="SKU1"),
            fast_point("feedsim", sku="SKU2"),
        ]
        serial = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        pooled = SweepExecutor(max_workers=4, cache=None, use_cache=False)
        serial_reports = serial.run(points)
        pooled_reports = pooled.run(points)
        assert pooled.last_stats.workers > 1
        assert pooled.last_stats.pool_mode == "warm"
        assert [r.as_dict() for r in serial_reports] == [
            r.as_dict() for r in pooled_reports
        ]

    def test_workers_capped_by_todo_not_max_workers(self):
        """Satellite: ``stats.workers`` reports the parallelism actually
        used — 2 points on a 16-worker executor is 2 workers, and a
        fully cached sweep runs on no pool at all."""
        points = [fast_point("taobench"), fast_point("feedsim")]
        executor = SweepExecutor(max_workers=16, cache=None, use_cache=False)
        executor.run(points)
        assert executor.last_stats.workers == 2

    def test_fully_cached_sweep_reports_inproc(self, tmp_path):
        from repro.exec.cache import RunCache

        points = [fast_point("taobench"), fast_point("feedsim")]
        SweepExecutor(max_workers=4, cache=RunCache(str(tmp_path))).run(points)
        warm = SweepExecutor(max_workers=4, cache=RunCache(str(tmp_path)))
        warm.run(points)
        stats = warm.last_stats
        assert stats.cache_hits == 2 and stats.executed == 0
        assert stats.pool_mode == "inproc"
        assert stats.workers == 1

    def test_stats_dict_has_pool_fields(self):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        executor.run([fast_point()])
        payload = executor.last_stats.as_dict()
        for field in ("pool_mode", "spawned", "reused", "respawned",
                      "bytes_shipped"):
            assert field in payload

    def test_suite_parallel_matches_serial(self):
        names = ["taobench", "feedsim"]
        serial_suite = DCPerfSuite(
            benchmark_names=names,
            measure_seconds=0.5,
            executor=SweepExecutor(max_workers=1, cache=None, use_cache=False),
        )
        parallel_suite = DCPerfSuite(
            benchmark_names=names,
            measure_seconds=0.5,
            executor=SweepExecutor(max_workers=4, cache=None, use_cache=False),
        )
        serial_report = serial_suite.run("SKU2")
        parallel_report = parallel_suite.run("SKU2")
        assert serial_report.as_dict() == parallel_report.as_dict()


class TestBaselineIsolation:
    """ISSUE satellite: suites with different measurement windows
    sharing one cache directory must not cross-contaminate baselines."""

    def test_measure_seconds_do_not_cross_contaminate(self, tmp_path):
        names = ["taobench"]
        short = DCPerfSuite(
            benchmark_names=names,
            measure_seconds=0.5,
            executor=SweepExecutor(
                max_workers=1, cache=RunCache(str(tmp_path))
            ),
        )
        long = DCPerfSuite(
            benchmark_names=names,
            measure_seconds=1.0,
            executor=SweepExecutor(
                max_workers=1, cache=RunCache(str(tmp_path))
            ),
        )
        # Each suite scores its own baseline SKU at exactly 1.0: if the
        # second suite reused the first's baseline (as a name-keyed
        # scoreboard would), its metric under the longer window would
        # divide by the short-window baseline instead.
        short_scores = short.run("SKU1").scores
        long_scores = long.run("SKU1").scores
        assert all(v == pytest.approx(1.0) for v in short_scores.values())
        assert all(v == pytest.approx(1.0) for v in long_scores.values())
        # And the scoreboard keys themselves are disjoint fingerprints.
        short_keys = set(short.scoreboard._baselines)
        long_keys = set(long.scoreboard._baselines)
        assert short_keys and long_keys
        assert short_keys.isdisjoint(long_keys)

    def test_different_kernels_get_their_own_baselines(self):
        suite = DCPerfSuite(
            benchmark_names=["taobench"],
            measure_seconds=0.5,
            executor=SweepExecutor(max_workers=1, cache=None, use_cache=False),
        )
        suite.run("SKU1", kernel="6.9")
        suite.run("SKU1", kernel="6.4")
        assert len(suite.scoreboard._baselines) == 2
