"""Tests for TaoBench."""

import gc

import pytest

from repro.cachelib.lru import LruCache
from repro.cachelib.readthrough import ReadThroughCache
from repro.exec.spec import RunPoint
from repro.sim.engine import Process
from repro.workloads import taobench
from repro.workloads.base import RunConfig
from repro.workloads.taobench import TaoBench, expected_hit_rate
from tests.conftest import run_point


@pytest.fixture(scope="module")
def result():
    return TaoBench().run(
        RunConfig(sku_name="SKU2", warmup_seconds=0.3, measure_seconds=0.8)
    )


class TestTaoBench:
    def test_throughput_order_of_magnitude(self, result):
        """Table 1: per-server RPS N(1M) for caching."""
        assert 3e5 < result.throughput_rps < 5e6

    def test_hit_rate_in_tao_regime(self, result):
        assert 0.80 < result.extra["cache_hit_rate"] < 0.99

    def test_hit_rate_matches_analytic_estimate(self, result):
        assert result.extra["cache_hit_rate"] == pytest.approx(
            expected_hit_rate(), abs=0.06
        )

    def test_utilization_matches_paper(self, result):
        """Figure 9: TaoBench runs at ~86%, not saturation."""
        assert 0.70 < result.cpu_util < 0.97

    def test_kernel_share_high(self, result):
        """Figure 9: ~30% of cycles in the kernel."""
        assert result.kernel_util / result.cpu_util > 0.20

    def test_steady_state_attached(self, result):
        assert result.steady is not None
        assert result.steady.misses.l1i_mpki > 30  # switch-driven misses

    def test_kernel_64_hurts_384_core_sku(self):
        """The Section 5.3 anomaly, smoke-sized."""
        cfg = lambda k: RunConfig(
            sku_name="SKU-384", kernel_version=k,
            warmup_seconds=0.2, measure_seconds=0.5, load_scale=1.4,
        )
        old = TaoBench().run(cfg("6.4"))
        new = TaoBench().run(cfg("6.9"))
        assert new.throughput_rps > 1.3 * old.throughput_rps

    def test_kernels_equivalent_on_small_sku(self):
        cfg = lambda k: RunConfig(
            sku_name="SKU2", kernel_version=k,
            warmup_seconds=0.2, measure_seconds=0.5,
        )
        old = TaoBench().run(cfg("6.4"))
        new = TaoBench().run(cfg("6.9"))
        assert new.throughput_rps == pytest.approx(old.throughput_rps, rel=0.08)


class TestWritePath:
    def test_writes_occur_at_tao_fraction(self, result):
        total = result.latency["count"]
        writes = result.extra["writes"]
        assert writes > 0
        assert writes / total < 0.04  # ~1% of requests

    def test_write_invalidate_does_not_tank_hit_rate(self, result):
        """Write-invalidate on 1% of traffic leaves the read hit rate
        in the TAO regime."""
        assert result.extra["cache_hit_rate"] > 0.80


class TestCacheReads:
    def test_one_lookup_per_read_request(self, monkeypatch):
        """Each read request looks its key up once (``LruCache.get``),
        only the sample wire-size response peeks, and the LRU's own hit
        and miss counters equal the fast- and slow-path dispatches."""
        calls = {"get": 0, "peek": 0}
        for name in calls:

            def counted(self, key, _original=getattr(LruCache, name), _name=name):
                calls[_name] += 1
                return _original(self, key)

            monkeypatch.setattr(LruCache, name, counted)
        caches = []

        def capture(*args):
            caches.append(ReadThroughCache(*args))
            return caches[-1]

        monkeypatch.setattr(taobench, "ReadThroughCache", capture)
        TaoBench().run(
            RunConfig(
                sku_name="SKU2", seed=11, warmup_seconds=0.1, measure_seconds=0.2
            )
        )
        (cache,) = caches
        dispatch = cache.stats
        lru = cache.server.cache.stats
        assert dispatch.fast_path > 0 and dispatch.slow_path > 0
        assert calls["peek"] == 1
        assert calls["get"] == dispatch.total
        assert (lru.hits, lru.misses) == (dispatch.fast_path, dispatch.slow_path)


class TestProcessTeardown:
    """Over a whole point, no finished process is left for the cyclic
    collector: only processes still suspended when the run ended sit in
    the harness's cyclic graph."""

    @pytest.mark.parametrize(
        "faults", ["", "overload_shed", "blackout", "flaky_network"]
    )
    def test_only_suspended_processes_are_cyclic_garbage(self, faults):
        point = RunPoint(
            benchmark="taobench",
            sku="SKU2",
            seed=11,
            measure_seconds=0.3,
            warmup_seconds=0.1,
            faults=faults,
        )
        was_enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_point(point)
            gc.collect()
            processes = [o for o in gc.garbage if isinstance(o, Process)]
            finished = sum(1 for p in processes if not p.is_alive)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert processes, "the harness graph should hold suspended processes"
        assert finished == 0
