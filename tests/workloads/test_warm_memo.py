"""Memoized setup phases must be invisible in results.

TaoBench memoizes its cache pre-warm fill; FeedSim applies the same
pattern to its SLO-search operating point.  Either memo serving a
shared result instead of recomputing must leave the report
byte-identical.
"""

import dataclasses
import random

import pytest

from repro.cachelib.memcached import MemcachedServer
from repro.exec.spec import RunPoint
from repro.sim.rng import RngStreams, lognormal_sampler
from repro.workloads import feedsim, taobench
from repro.workloads.base import RunConfig
from repro.workloads.profiles import BENCHMARK_PROFILES
from tests.conftest import run_point


def _point(seed=11, benchmark="taobench"):
    return RunPoint(
        benchmark=benchmark,
        sku="SKU2",
        seed=seed,
        measure_seconds=0.05,
        warmup_seconds=0.02,
        early_stop=False,
    )


def _live_fill(server, size_rng):
    """The per-item pre-warm loop the memoized fill replaced: rank-order
    ``set`` calls until the cache's byte budget is ~full."""
    sampler = lognormal_sampler(
        taobench.MEAN_OBJECT_BYTES, taobench.OBJECT_SIZE_CV
    )
    rank = 1
    while (
        server.cache.used_bytes < 0.97 * taobench.CACHE_CAPACITY_BYTES
        and rank <= taobench.KEY_SPACE
    ):
        key = f"tao:{rank}"
        server.set(key, taobench.object_value(key, sampler.sample(size_rng)))
        rank += 1


class TestWarmFill:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_warm_equals_sequential_sets(self, seed):
        live_rng = RngStreams(seed).stream("object-sizes")
        warm_rng = random.Random()
        warm_rng.setstate(live_rng.getstate())
        live = MemcachedServer(capacity_bytes=taobench.CACHE_CAPACITY_BYTES)
        _live_fill(live, live_rng)

        warmed = MemcachedServer(capacity_bytes=taobench.CACHE_CAPACITY_BYTES)
        items, size_state = taobench.warm_fill(
            taobench.KEY_SPACE,
            taobench.CACHE_CAPACITY_BYTES,
            taobench.MEAN_OBJECT_BYTES,
            taobench.OBJECT_SIZE_CV,
            warm_rng.getstate(),
        )
        warmed.warm(items)
        warm_rng.setstate(size_state)

        # Same entries in the same LRU order, bytes, counters and
        # validated keys; the size stream ends in the same state.
        assert warmed.cache.items_snapshot() == live.cache.items_snapshot()
        assert warmed.cache.used_bytes == live.cache.used_bytes
        assert warmed.cache.stats == live.cache.stats
        assert warmed._validated == live._validated
        assert warm_rng.getstate() == live_rng.getstate()

    def test_fill_checks_its_keys(self, monkeypatch):
        checked = []
        monkeypatch.setattr(taobench, "check_key", checked.append)
        taobench.warm_fill.cache_clear()
        state = RngStreams(3).stream("object-sizes").getstate()
        items, _ = taobench.warm_fill(1_000, 64 * 1024, 150.0, 1.2, state)
        assert checked == [key for key, _ in items]
        taobench.warm_fill(1_000, 64 * 1024, 150.0, 1.2, state)
        assert len(checked) == len(items)  # once per distinct fill
        taobench.warm_fill.cache_clear()


class TestWarmMemo:
    def test_memo_hit_is_byte_identical(self):
        taobench.warm_fill.cache_clear()
        first = run_point(_point())   # builds the fill
        assert taobench.warm_fill.cache_info().currsize == 1
        second = run_point(_point())  # shares it
        assert taobench.warm_fill.cache_info().hits == 1
        assert first.metric_value == second.metric_value
        assert first.as_dict() == second.as_dict()

    def test_different_seed_is_a_different_fill(self):
        taobench.warm_fill.cache_clear()
        run_point(_point(seed=11))
        run_point(_point(seed=12))  # different size-stream state
        assert taobench.warm_fill.cache_info().currsize == 2


class TestFeedsimSearchMemo:
    def test_memo_hit_is_byte_identical(self):
        feedsim._registry_operating_point.cache_clear()
        first = run_point(_point(benchmark="feedsim"))
        assert feedsim._registry_operating_point.cache_info().currsize == 1
        second = run_point(_point(benchmark="feedsim"))
        assert feedsim._registry_operating_point.cache_info().hits == 1
        assert first.metric_value == second.metric_value
        assert first.as_dict() == second.as_dict()

    def test_different_seed_is_a_different_search(self):
        feedsim._registry_operating_point.cache_clear()
        run_point(_point(seed=11, benchmark="feedsim"))
        run_point(_point(seed=12, benchmark="feedsim"))
        assert feedsim._registry_operating_point.cache_info().currsize == 2

    def test_run_reports_a_copy_of_the_operating_point_probe(self):
        """The search already ran the operating rate on a fresh harness
        with this config, so ``run`` reports that probe plus its slo_*
        extras, and leaves the memoized probe untouched."""
        feedsim._registry_operating_point.cache_clear()
        config = RunConfig(sku_name="SKU2", measure_seconds=0.3)
        workload = feedsim.FeedSim()
        rps, slo_met, _, _, probed = workload._operating_point(config)
        assert slo_met and probed is not None
        fresh = workload._measure(config, rps).as_dict()
        assert probed.as_dict() == fresh
        reported = workload.run(config).as_dict()
        assert probed.as_dict() == fresh
        slo_keys = {k for k in reported["extra"] if k.startswith("slo_")}
        assert slo_keys and not slo_keys & set(fresh["extra"])
        for key in slo_keys:
            del reported["extra"][key]
        assert reported == fresh

    def test_custom_characteristics_bypass_the_memo(self):
        """Only module-persistent registry profiles are safe memo keys;
        a caller-built profile object must never populate the memo."""
        feedsim._registry_operating_point.cache_clear()
        chars = dataclasses.replace(BENCHMARK_PROFILES["feedsim"])
        config = RunConfig(measure_seconds=0.05, warmup_seconds=0.02)
        point = feedsim.FeedSim(chars=chars)._operating_point(config)
        assert feedsim._registry_operating_point.cache_info().currsize == 0
        # The equal registry profile finds the same point, memoized.
        assert point == feedsim.FeedSim()._operating_point(config)
        assert feedsim._registry_operating_point.cache_info().currsize == 1
