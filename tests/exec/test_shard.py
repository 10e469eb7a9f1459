"""Tests for intra-run sharding: expansion, seed split, merging.

The headline invariants: ``shards=1`` is bit-identical to the
unsharded path, and a fixed ``shards=N`` run produces byte-identical
reports on both execution paths (in-process and warm pool) and across
cache round-trips.
"""

import dataclasses
import json

import pytest

from repro.core.benchmark import Benchmark
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor, _run_point_payload
from repro.exec.shard import expand_shards, merge_shard_payloads
from repro.exec.spec import RunPoint, run_fingerprint, shard_seed
from tests.conftest import run_point

FAST = dict(measure_seconds=0.5, warmup_seconds=0.2, early_stop=False)


def fast_point(benchmark="taobench", **kwargs):
    return RunPoint(benchmark=benchmark, **{**FAST, **kwargs})


def report_bytes(report):
    return json.dumps(report.as_dict(), sort_keys=True)


class TestShardSpec:
    def test_shard_seed_is_documented_split(self):
        assert shard_seed(7, 0) == 7 * 1_000_003 + 1
        assert shard_seed(7, 3) == 7 * 1_000_003 + 4
        # Shard 0 never collides with the parent seed.
        assert shard_seed(7, 0) != 7

    def test_point_validation(self):
        with pytest.raises(ValueError):
            RunPoint(benchmark="taobench", shards=0)
        with pytest.raises(ValueError):
            RunPoint(benchmark="taobench", shards=2, shard_index=2)
        with pytest.raises(ValueError):
            RunPoint(benchmark="taobench", shards=1, shard_index=-2)

    def test_expand_shards(self):
        parent = fast_point(shards=3)
        subs = expand_shards(parent)
        assert [s.shard_index for s in subs] == [0, 1, 2]
        assert all(s.shards == 3 for s in subs)
        # Sub-points differ only in shard_index — same cache identity
        # space as the parent otherwise.
        assert {dataclasses.replace(s, shard_index=-1) for s in subs} == {parent}
        # Distinct fingerprints: shard results cache independently.
        fps = {run_fingerprint(s) for s in subs} | {run_fingerprint(parent)}
        assert len(fps) == 4

    def test_expand_is_identity_for_unsharded(self):
        point = fast_point()
        assert expand_shards(point) == [point]
        sub = fast_point(shards=2, shard_index=1)
        assert expand_shards(sub) == [sub]

    def test_sub_point_run_config_derivation(self):
        parent = fast_point(seed=11, load_scale=1.0, shards=4)
        sub = expand_shards(parent)[2]
        config = sub.run_config()
        assert config.seed == shard_seed(11, 2)
        assert config.load_scale == pytest.approx(0.25)
        assert config.shards == 4
        assert config.shard_index == 2
        # The parent's own config keeps the undivided rate.
        assert parent.run_config().load_scale == 1.0

    def test_benchmark_run_rejects_unexpanded_parent(self):
        parent = fast_point(shards=2)
        with pytest.raises(ValueError, match="SweepExecutor"):
            Benchmark.by_name("taobench").run(parent.run_config())


class TestShardMerge:
    def test_merge_requires_all_shards(self):
        parent = fast_point(shards=2)
        with pytest.raises(ValueError):
            merge_shard_payloads(parent, [{}])
        with pytest.raises(ValueError):
            merge_shard_payloads(fast_point(), [{}])

    def test_shards_one_identical_to_unsharded(self):
        point = fast_point(seed=11)
        direct = Benchmark.by_name("taobench").run(point.run_config())
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        via_executor = executor.run([point])[0]
        assert report_bytes(direct) == report_bytes(via_executor)
        assert executor.last_stats.shard_points == 0
        assert executor.last_stats.merged_runs == 0

    def test_merged_report_shape(self):
        parent = fast_point(seed=11, shards=2)
        report = run_point(parent)
        payload = report.as_dict()
        assert payload["system"]["shards"] == 2
        sharding = payload["hooks"]["sharding"]
        assert sharding["enabled"] is True
        assert sharding["role"] == "merged"
        assert sharding["shard_seeds"] == [shard_seed(11, 0), shard_seed(11, 1)]
        assert len(sharding["shard_throughput_rps"]) == 2
        # Merged throughput is the shard sum; the raw recorder state
        # never leaks into the merged report.
        assert report.metric_value == pytest.approx(
            sum(sharding["shard_throughput_rps"])
        )
        assert "shard_latency" not in report.result.extra
        assert report.result.extra["shards"] == 2

    def test_shard_sub_report_is_marked(self):
        sub = expand_shards(fast_point(seed=11, shards=2))[1]
        report = Benchmark.by_name("taobench").run(sub.run_config())
        sharding = report.hook_sections["sharding"]
        assert sharding == {
            "enabled": True,
            "role": "shard",
            "shards": 2,
            "shard_index": 1,
            "shard_seed": shard_seed(11, 1),
        }
        assert "shard_latency" in report.result.extra

    def test_unsharded_report_sharding_disabled(self):
        report = Benchmark.by_name("taobench").run(fast_point().run_config())
        assert report.hook_sections["sharding"] == {"enabled": False}
        assert "shard_latency" not in report.result.extra

    def test_merged_latency_is_exact_union(self):
        # The merged percentiles must equal percentiles over the union
        # of the shard sample streams — not a weighted-summary blend.
        from repro.loadgen.recorder import LatencyRecorder

        parent = fast_point(seed=11, shards=2)
        subs = expand_shards(parent)
        reports = [
            Benchmark.by_name("taobench").run(s.run_config()) for s in subs
        ]
        union = LatencyRecorder()
        for rep in reports:
            union.merge(
                LatencyRecorder.from_state(rep.result.extra["shard_latency"])
            )
        merged = run_point(parent)
        assert merged.result.latency == union.summary()

    @pytest.mark.parametrize("name", ["mediawiki", "djangobench", "feedsim"])
    def test_merge_does_not_add_percentiles_parameters_or_flags(self, name):
        """Per-endpoint p95s average, ``worker_processes`` is a run
        parameter and feedsim's ``slo_met`` a pass/fail flag: the merge
        used to add each of them across shards."""
        parent = fast_point(name, sku="SKU2", seed=11, shards=2)
        payloads = [_run_point_payload(sub) for sub in expand_shards(parent)]
        shards = [p["result"]["extra"] for p in payloads]
        merged = merge_shard_payloads(parent, payloads)["result"]["extra"]
        p95_keys = [k for k in shards[0] if k.startswith("p95_")]
        assert bool(p95_keys) == (name != "feedsim")
        for key in p95_keys:
            low, high = sorted(extra[key] for extra in shards)
            assert low <= merged[key] <= high, key
        if name == "djangobench":
            assert shards[0]["worker_processes"] == 52
            assert merged["worker_processes"] == 52
        if name == "feedsim":
            assert [extra["slo_met"] for extra in shards] == [1.0, 1.0]
            assert merged["slo_met"] == 1.0
            shards[1]["slo_met"] = 0.0
            failed = merge_shard_payloads(parent, payloads)["result"]["extra"]
            assert failed["slo_met"] == 0.0
        else:
            # Elsewhere ``slo_met`` is the control plane's request count.
            for count, extra in zip((3.0, 4.0), shards):
                extra["slo_met"] = count
            counted = merge_shard_payloads(parent, payloads)["result"]["extra"]
            assert counted["slo_met"] == 7.0

    @pytest.mark.parametrize("workload", ["sparkbench", "videotranscode"])
    def test_refuses_workload_without_open_loop_harness(self, workload):
        """A workload outside the open-loop harness runs its whole job
        in every shard: summing the shard metrics would report N times
        the unsharded value, so the merge refuses it."""
        with pytest.raises(ValueError, match=workload):
            run_point(fast_point(workload, shards=2))


class TestShardExecution:
    def test_byte_identity_across_paths(self):
        parent = fast_point(seed=11, shards=2)
        inproc = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        baseline = report_bytes(inproc.run([parent])[0])
        assert inproc.last_stats.pool_mode == "inproc"
        assert inproc.last_stats.shard_points == 2
        assert inproc.last_stats.merged_runs == 1
        assert inproc.last_stats.executed == 2

        pooled = SweepExecutor(max_workers=2, cache=None, use_cache=False)
        assert report_bytes(pooled.run([parent])[0]) == baseline
        stats = pooled.last_stats
        assert stats.pool_mode == "warm"
        # The workers field reflects shard sub-points: one run
        # genuinely fanned out across the pool.
        assert stats.workers == 2
        assert stats.shard_points == 2
        assert stats.merged_runs == 1

    def test_cache_round_trip(self, tmp_path):
        parent = fast_point(seed=11, shards=2)
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        first = report_bytes(executor.run([parent])[0])
        # Two shard entries plus the merged parent.
        assert cache.info().entries == 3

        rerun = SweepExecutor(max_workers=1, cache=RunCache(str(tmp_path)))
        second = report_bytes(rerun.run([parent])[0])
        assert second == first
        # The parent hit short-circuits: nothing re-expands or re-runs.
        assert rerun.last_stats.cache_hits == 1
        assert rerun.last_stats.executed == 0
        assert rerun.last_stats.shard_points == 0
        assert rerun.last_stats.merged_runs == 0

    def test_partial_cache_reuses_shard_results(self, tmp_path):
        parent = fast_point(seed=11, shards=2)
        cache = RunCache(str(tmp_path))
        executor = SweepExecutor(max_workers=1, cache=cache)
        first = report_bytes(executor.run([parent])[0])

        # Drop only the merged parent entry; the shard results stay.
        import os

        parent_fp = run_fingerprint(parent)
        os.unlink(os.path.join(str(tmp_path), f"{parent_fp}.json"))

        rerun = SweepExecutor(max_workers=1, cache=RunCache(str(tmp_path)))
        second = report_bytes(rerun.run([parent])[0])
        assert second == first
        assert rerun.last_stats.cache_hits == 2  # both shard entries
        assert rerun.last_stats.executed == 0
        assert rerun.last_stats.merged_runs == 1

    def test_on_point_streams_only_parent(self):
        parent = fast_point(seed=11, shards=2)
        seen = []
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        executor.run([parent], on_point=lambda p, r: seen.append(p))
        assert seen == [parent]

    def test_sharded_and_plain_points_coexist(self):
        sharded = fast_point(seed=11, shards=2)
        plain = fast_point("feedsim", seed=11)
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        reports = executor.run([sharded, plain])
        assert [r.benchmark for r in reports] == ["taobench", "feedsim"]
        stats = executor.last_stats
        assert stats.executed == 3  # 2 shard subs + 1 plain point
        assert stats.shard_points == 2
        assert stats.merged_runs == 1

    def test_deterministic_replay(self):
        parent = fast_point(seed=11, shards=3)
        a = report_bytes(run_point(parent))
        b = report_bytes(run_point(parent))
        assert a == b

    def test_stats_dict_has_shard_fields(self):
        executor = SweepExecutor(max_workers=1, cache=None, use_cache=False)
        executor.run([fast_point(seed=11, shards=2)])
        payload = executor.last_stats.as_dict()
        assert payload["shard_points"] == 2
        assert payload["merged_runs"] == 1
