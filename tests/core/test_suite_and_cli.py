"""Tests for suite orchestration and the CLI."""

import json

import pytest

from repro.core.cli import main
from repro.core.suite import DCPerfSuite, FLEET_POWER_WEIGHTS
from repro.exec.workerpool import shutdown_warm_pool


class TestSuite:
    @pytest.fixture(scope="class")
    def small_suite(self):
        return DCPerfSuite(
            benchmark_names=["taobench", "videotranscode"],
            measure_seconds=0.5,
        )

    def test_baseline_sku_scores_one(self, small_suite):
        report = small_suite.run("SKU1")
        for score in report.scores.values():
            assert score == pytest.approx(1.0)
        assert report.overall_score == pytest.approx(1.0)

    def test_other_sku_scores_relative(self, small_suite):
        report = small_suite.run("SKU2")
        for score in report.scores.values():
            assert score > 1.0
        assert report.overall_score > 1.0

    def test_perf_per_watt_reported(self, small_suite):
        report = small_suite.run("SKU2")
        assert all(v > 0 for v in report.perf_per_watt.values())

    def test_production_weighting(self, small_suite):
        report = small_suite.run("SKU2")
        weighted = small_suite.production_score(report)
        assert weighted > 0

    def test_fleet_weights_sum_to_one(self):
        assert sum(FLEET_POWER_WEIGHTS.values()) == pytest.approx(1.0)

    def test_default_suite_scores_llm_mixes(self):
        from repro.workloads.registry import (
            dcperf_benchmarks,
            llm_serving_benchmarks,
        )

        suite = DCPerfSuite()
        assert suite.benchmark_names == (
            dcperf_benchmarks() + llm_serving_benchmarks()
        )
        assert "llmbench-chat" in suite.benchmark_names
        assert "llmbench-codegen" in suite.benchmark_names

    def test_prod_suite_skips_llm_mixes(self):
        from repro.workloads.registry import dcperf_benchmarks

        suite = DCPerfSuite(variant=":prod")
        assert suite.benchmark_names == dcperf_benchmarks()

    def test_llm_mix_scores_against_baseline(self):
        suite = DCPerfSuite(
            benchmark_names=["llmbench-chat"], measure_seconds=0.5
        )
        report = suite.run("SKU2")
        assert report.scores["llmbench-chat"] > 0

    def test_report_serializable(self, small_suite):
        report = small_suite.run("SKU1")
        payload = report.as_dict()
        json.dumps(payload, default=str)  # must not raise


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "taobench" in out
        assert "mediawiki" in out

    def test_skus(self, capsys):
        assert main(["skus"]) == 0
        out = capsys.readouterr().out
        assert "SKU4" in out
        assert "176" in out

    def test_install(self, capsys):
        assert main(["install", "-b", "taobench"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["category"] == "caching"

    def test_run_json(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        code = main([
            "run", "-b", "videotranscode", "--sku", "SKU2",
            "--measure-seconds", "0.5", "--json", path,
        ])
        assert code == 0
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["benchmark"] == "videotranscode"

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "rpc_roundtrip" in out

    def test_run_sharded(self, capsys, monkeypatch):
        monkeypatch.setenv("DCPERF_CACHE", "0")
        code = main([
            "run", "-b", "taobench", "--measure-seconds", "0.5",
            "--no-early-stop", "--shards", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"]["shards"] == 2
        sharding = payload["hooks"]["sharding"]
        assert sharding["role"] == "merged"
        assert len(sharding["shard_seeds"]) == 2

    def test_run_rejects_bad_shards(self, capsys):
        assert main(["run", "-b", "taobench", "--shards", "0"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--no-warm-pool", "--schedule=fifo", "--auto-shard"]
    )
    def test_suite_has_one_dispatch_path(self, flag, capsys):
        # --parallel alone picks the path: in-process or the warm pool.
        with pytest.raises(SystemExit):
            main(["suite", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["cache", "info", "--costs"], ["cache", "clear", "--keep-costs"]]
    )
    def test_cache_has_no_cost_ledger_flags(self, argv, capsys):
        # Sweeps keep no cost ledger on disk, so there is none to show
        # or keep.
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_suite_early_stop_default_differs_from_library(self, tmp_path):
        """``dcperf suite`` stops runs early unless told not to, while
        ``DCPerfSuite()`` measures the full window: one seed gives the
        CLI the numbers of ``DCPerfSuite(early_stop=True)``, and with
        ``--no-early-stop`` those of the library default.  With
        ``--sku SKU1`` the 9 baseline points are the 9 target points.
        ``--parallel 2``, the warm-pool path, writes the same JSON as
        the in-process sweep."""
        path = str(tmp_path / "suite.json")

        def cli(*flags):
            argv = ["suite", "--sku", "SKU1", "--measure-seconds", "0.5",
                    "--no-cache", "--json", path, *flags]
            assert main(argv) == 0
            with open(path) as fh:
                return json.load(fh)

        def library(**kwargs):
            report = DCPerfSuite(measure_seconds=0.5, **kwargs).run("SKU1")
            return json.loads(json.dumps(report.as_dict(), default=str))

        early = cli()
        assert early == library(early_stop=True)
        shutdown_warm_pool()
        try:
            assert cli("--parallel", "2") == early
        finally:
            shutdown_warm_pool()
        full = cli("--no-early-stop")
        assert full == library()
        assert early != full

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "llmbench-chat" in out
        assert "llmbench-long_reasoning" in out
        assert "scored" in out and "unscored" in out
        # Every scored suite entry is labeled as such.
        for line in out.splitlines():
            if line.startswith("llmbench-chat ") or line.startswith(
                "taobench "
            ):
                assert " scored" in line
            if line.startswith("aibench ") or line.startswith(
                "llmbench-rag"
            ):
                assert "unscored" in line

    def test_run_catalog_shorthand(self, capsys):
        code = main([
            "run", "-b", "llmbench", "--catalog", "codegen",
            "--measure-seconds", "0.5",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "llmbench-codegen"
        assert payload["hooks"]["llm_serving"]["enabled"]

    def test_run_catalog_rejects_non_llm_benchmark(self, capsys):
        assert main(["run", "-b", "taobench", "--catalog", "chat"]) == 2

    def test_cache_info_reports_stale_counts(self, tmp_path, capsys):
        from repro.exec.cache import RunCache
        from repro.exec.spec import RunPoint, run_fingerprint

        point = RunPoint(benchmark="taobench")
        cache = RunCache(str(tmp_path))
        cache.put(run_fingerprint(point), point, {"x": 1})
        # Orphaned: not the fingerprint the running code gives the point.
        cache.put("b" * 8, point, {"x": 1})
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "current: 1" in out
        assert "stale:   1" in out

        assert (
            main(["cache", "clear", "--stale", "--cache-dir", str(tmp_path)])
            == 0
        )
        assert "removed 1 stale" in capsys.readouterr().out
        assert cache.info().entries == 1
