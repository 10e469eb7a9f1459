"""Tests for the sweep executor: dedup, caching, determinism, dispatch
order, worker counts and progress."""

import json
import os

import pytest

from repro.core.benchmark import Benchmark
from repro.core.suite import DCPerfSuite
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint
from repro.exec.workerpool import shutdown_warm_pool
from tests.conftest import run_point

FAST = dict(measure_seconds=0.5, warmup_seconds=0.2)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def sweep_bytes(reports):
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]


class TestSweepExecutor:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)

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

    def test_runs_points_in_spec_order(self, monkeypatch):
        """Pending points run in spec order, whatever their windows:
        a 0.3 s window listed before a 0.6 s one runs first."""
        measured = []
        original = Benchmark.run

        def recording_run(self, config=None, hooks=None):
            measured.append(config.measure_seconds)
            return original(self, config, hooks)

        monkeypatch.setattr(Benchmark, "run", recording_run)
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        executor.run([
            fast_point(seed=31, measure_seconds=0.3),
            fast_point(seed=31, measure_seconds=0.6),
        ])
        assert measured == [0.3, 0.6]

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
        # second suite reused the first's baseline, its metric under the
        # longer window would divide by the short-window baseline
        # instead.
        short_scores = short.run("SKU1").scores
        long_scores = long.run("SKU1").scores
        assert all(v == pytest.approx(1.0) for v in short_scores.values())
        assert all(v == pytest.approx(1.0) for v in long_scores.values())

    def test_different_kernels_get_their_own_baselines(self):
        suite = DCPerfSuite(
            benchmark_names=["taobench"],
            measure_seconds=0.5,
            executor=SweepExecutor(max_workers=1, cache=None, use_cache=False),
        )
        for kernel in ("6.9", "6.4"):
            scores = suite.run("SKU1", kernel=kernel).scores
            assert scores == {"taobench": pytest.approx(1.0)}


class TestSchedulingByteIdentity:
    """Dispatch moves completion order, never bytes: in-process and on
    the warm pool, a sweep merges to the reports of running each point
    in-process, one at a time, in spec order."""

    POINTS = [
        fast_point("taobench", sku="SKU1"),
        fast_point("feedsim", sku="SKU2"),
        fast_point("djangobench", sku="SKU1"),
        fast_point("taobench", sku="SKU3"),
        fast_point("mediawiki", sku="SKU2", measure_seconds=0.6),
    ]

    @pytest.fixture(scope="class")
    def spec_order_reference(self):
        return sweep_bytes(run_point(p) for p in self.POINTS)

    def test_inproc_matches_spec_order(self, spec_order_reference):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        assert sweep_bytes(executor.run(self.POINTS)) == spec_order_reference

    def test_warm_pool_matches_spec_order(self, spec_order_reference):
        shutdown_warm_pool()
        try:
            executor = SweepExecutor(
                max_workers=3, cache=None, use_cache=False
            )
            reports = executor.run(self.POINTS)
            assert executor.last_stats.pool_mode == "warm"
            assert sweep_bytes(reports) == spec_order_reference
        finally:
            shutdown_warm_pool()


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
        info = cache.info()
        assert (info.entries, info.stale) == (4, 0)
