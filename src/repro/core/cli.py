"""Command-line interface: the clone/build/run workflow of Section 2.1.

Usage examples::

    dcperf list
    dcperf workloads list
    dcperf install -b taobench
    dcperf run -b taobench --sku SKU2 --kernel 6.9 --json out.json
    dcperf run -b llmbench --catalog chat
    dcperf suite --sku SKU4
    dcperf suite --skus SKU1,SKU2,SKU3,SKU4 --parallel 4
    dcperf cache info
    dcperf cache clear
    dcperf microbench
    dcperf skus
    dcperf faults list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.core.benchmark import Benchmark
from repro.core.report import format_table, write_json_report
from repro.core.suite import DCPerfSuite
from repro.exec.cache import RunCache, cache_from_env
from repro.exec.executor import SweepExecutor
from repro.hw.sku import list_skus
from repro.llm.catalog import mix_names as llm_mix_names
from repro.workloads.base import RunConfig
from repro.workloads.registry import (
    dcperf_benchmarks,
    extension_benchmarks,
    llm_serving_benchmarks,
    workload_names,
)
from repro.workloads.scenarios import (
    FAULT_SCENARIOS,
    apply_fault_scenario,
    fault_scenario_names,
    get_fault_scenario,
)


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for name in dcperf_benchmarks() + extension_benchmarks():
        bench = Benchmark.by_name(name)
        desc = bench.workload.describe()
        suite = "extension" if name in extension_benchmarks() else "dcperf"
        rows.append(
            [
                name,
                suite,
                desc["category"],
                desc["metric"],
                f"{desc['tax_fraction']:.0%}",
            ]
        )
    print(
        format_table(["benchmark", "suite", "category", "metric", "tax share"], rows)
    )
    return 0


def _cmd_skus(_args: argparse.Namespace) -> int:
    rows = [
        [
            sku.name,
            sku.logical_cores,
            sku.memory.capacity_gb,
            sku.network_gbps,
            sku.storage,
            sku.year,
            sku.designed_power_w,
        ]
        for sku in list_skus()
    ]
    print(
        format_table(
            ["sku", "logical cores", "ram GB", "net Gbps", "storage", "year", "power W"],
            rows,
        )
    )
    return 0


def _cmd_install(args: argparse.Namespace) -> int:
    bench = Benchmark.by_name(args.benchmark)
    description = bench.install()
    print(json.dumps(description, indent=2, default=str))
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    scored = set(dcperf_benchmarks()) | set(llm_serving_benchmarks())
    rows = []
    for name in workload_names():
        bench = Benchmark.by_name(name)
        desc = bench.workload.describe()
        rows.append(
            [
                name,
                desc["category"],
                "scored" if name in scored else "unscored",
                desc["metric"],
            ]
        )
    print(format_table(["workload", "category", "suite", "metric"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.catalog:
        if args.benchmark.split("-")[0] != "llmbench":
            print("--catalog only applies to llmbench", file=sys.stderr)
            return 2
        args.benchmark = f"llmbench-{args.catalog}"
    if args.shards > 1:
        # Sharded runs execute through the sweep machinery: the point
        # expands into shard sub-points (run on the warm pool, one
        # worker per shard) and the shard reports merge into one.
        from repro.exec.spec import RunPoint

        point = RunPoint(
            benchmark=args.benchmark,
            sku=args.sku,
            kernel=args.kernel,
            seed=args.seed,
            measure_seconds=args.measure_seconds,
            faults=args.faults or "",
            early_stop=not args.no_early_stop,
            shards=args.shards,
        )
        executor = SweepExecutor(max_workers=args.shards)
        report = executor.run([point])[0]
    else:
        bench = Benchmark.by_name(args.benchmark)
        config = RunConfig(
            sku_name=args.sku,
            kernel_version=args.kernel,
            seed=args.seed,
            measure_seconds=args.measure_seconds,
            early_stop=not args.no_early_stop,
        )
        if args.faults:
            config = apply_fault_scenario(config, args.faults)
        report = bench.run(config)
    payload = report.as_dict()
    if args.json:
        path = write_json_report(payload, args.json)
        print(f"report written to {path}")
    else:
        print(json.dumps(payload, indent=2, default=str))
    return 0


def _suite_executor(args: argparse.Namespace) -> SweepExecutor:
    if args.no_cache:
        cache = None
        use_cache = False
    elif args.cache_dir:
        cache = RunCache(args.cache_dir)
        use_cache = True
    else:
        cache = None
        use_cache = True
    return SweepExecutor(
        max_workers=args.parallel,
        cache=cache,
        use_cache=use_cache,
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    skus = (
        [s.strip() for s in args.skus.split(",") if s.strip()]
        if args.skus
        else [args.sku]
    )
    if not skus:
        print("no SKUs given", file=sys.stderr)
        return 2
    suite = DCPerfSuite(
        measure_seconds=args.measure_seconds,
        executor=_suite_executor(args),
        faults=args.faults or "",
        early_stop=not args.no_early_stop,
    )
    if args.faults:
        scenario = get_fault_scenario(args.faults)
        print(f"fault scenario: {scenario.name} — {scenario.description}")
    on_point = None
    if args.progress:
        executor = suite.executor

        def on_point(point, report):  # noqa: F811 - deliberate rebind
            prog = executor.progress() or {}
            done = prog.get("done", "?")
            total = prog.get("total", "?")
            print(
                f"  [{done}/{total}] {point.workload_name} on {point.sku}: "
                f"{report.metric_value:.4g}",
                file=sys.stderr,
            )

    reports = suite.run_many(
        skus, kernel=args.kernel, seed=args.seed, on_point=on_point
    )
    for sku, report in reports.items():
        if len(reports) > 1:
            print(f"\n== {sku} ==")
        if args.faults:
            rows = []
            for name, score in report.scores.items():
                bench_report = report.reports[name]
                resilience = bench_report.hook_sections.get("resilience", {})
                p95 = bench_report.result.latency.get("p95", 0.0)
                rows.append(
                    [
                        name,
                        f"{bench_report.metric_value:.4g}",
                        f"{score:.3f}",
                        f"{p95 * 1000.0:.1f}",
                        f"{resilience.get('slo_compliance_pct', 100.0):.1f}",
                        f"{resilience.get('error_rate', 0.0):.3f}",
                    ]
                )
            print(
                format_table(
                    [
                        "benchmark",
                        "metric",
                        "score vs SKU1",
                        "p95 ms",
                        "SLO %",
                        "err rate",
                    ],
                    rows,
                )
            )
        else:
            rows = [
                [
                    name,
                    f"{report.reports[name].metric_value:.4g}",
                    f"{score:.3f}",
                ]
                for name, score in report.scores.items()
            ]
            print(format_table(["benchmark", "metric", "score vs SKU1"], rows))
        print(f"\noverall score (geomean): {report.overall_score:.3f}")
    stats = suite.executor.last_stats
    if stats is not None:
        print(
            f"\nsweep: {stats.unique_points} unique runs, "
            f"{stats.cache_hits} cache hits, {stats.executed} executed "
            f"on {stats.workers} worker(s) [{stats.pool_mode}] "
            f"in {stats.elapsed_seconds:.1f}s"
        )
        if stats.pool_mode == "warm":
            print(
                f"warm pool: {stats.spawned} spawned, {stats.reused} reused, "
                f"{stats.respawned} respawned, {stats.steals} stolen, "
                f"{stats.bytes_shipped / 1024:.1f} KiB shipped"
            )
    if args.json:
        payload: Dict[str, object]
        if len(reports) == 1:
            payload = next(iter(reports.values())).as_dict()
        else:
            payload = {sku: rep.as_dict() for sku, rep in reports.items()}
        path = write_json_report(payload, args.json)
        print(f"report written to {path}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = RunCache(args.cache_dir) if args.cache_dir else cache_from_env()
    if cache is None:
        cache = RunCache()
    if args.cache_command == "clear":
        removed = cache.clear(stale_only=args.stale)
        what = "stale cached run(s)" if args.stale else "cached run(s)"
        print(f"removed {removed} {what} from {cache.directory}")
        return 0
    info = cache.info()
    print(f"directory: {info.directory}")
    print(f"entries:   {info.entries}")
    print(f"size:      {info.total_bytes / 1024:.1f} KiB")
    print(f"  current: {info.current}")
    print(f"  stale:   {info.stale}")
    return 0


def _cmd_faults(_args: argparse.Namespace) -> int:
    rows = []
    for name in fault_scenario_names():
        scenario = FAULT_SCENARIOS[name]
        control = "yes" if scenario.control.enabled else "-"
        load = (
            f"{scenario.load_multiplier:g}x"
            if scenario.load_multiplier != 1.0
            else "-"
        )
        rows.append([name, control, load, scenario.description])
    print(format_table(["scenario", "slo control", "load", "description"], rows))
    return 0


def _cmd_microbench(_args: argparse.Namespace) -> int:
    from repro.dctax.microbench import run_all

    rows = [
        [name, result.operations, f"{result.ops_per_second:.4g}"]
        for name, result in run_all().items()
    ]
    print(format_table(["microbenchmark", "ops", "ops/s"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcperf",
        description="DCPerf reproduction: datacenter benchmarks on a simulated substrate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("skus", help="list modeled server SKUs").set_defaults(
        func=_cmd_skus
    )

    p_install = sub.add_parser("install", help="prepare one benchmark")
    p_install.add_argument("-b", "--benchmark", required=True)
    p_install.set_defaults(func=_cmd_install)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("-b", "--benchmark", required=True)
    p_run.add_argument(
        "--catalog",
        choices=llm_mix_names(),
        help="llmbench only: run this serving mix from the scenario "
        "catalog (shorthand for -b llmbench-<mix>)",
    )
    p_run.add_argument("--sku", default="SKU2")
    p_run.add_argument("--kernel", default="6.9", choices=["6.4", "6.9"])
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--measure-seconds", type=float, default=2.0)
    p_run.add_argument(
        "--faults",
        choices=fault_scenario_names(),
        help="inject a named fault scenario during the run",
    )
    p_run.add_argument(
        "--no-early-stop",
        action="store_true",
        help="always measure the full window instead of stopping once "
        "latency windows converge (slower, byte-stable reports)",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="simulate N servers, each at 1/N of the offered rate, on "
        "the warm worker pool and merge their results into one report; "
        "this changes the experiment, not only its speed (1 = ordinary "
        "single-server run)",
    )
    p_run.add_argument("--json", help="write the report to this JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the whole suite and score it")
    p_suite.add_argument("--sku", default="SKU2")
    p_suite.add_argument(
        "--skus",
        help="comma-separated SKU list; one sweep scores them all "
        "(overrides --sku)",
    )
    p_suite.add_argument("--kernel", default="6.9", choices=["6.4", "6.9"])
    p_suite.add_argument("--seed", type=int, default=7)
    p_suite.add_argument("--measure-seconds", type=float, default=1.5)
    p_suite.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (1 = in-process, more = "
        "the persistent warm worker pool)",
    )
    p_suite.add_argument(
        "--progress",
        action="store_true",
        help="stream each finished point to stderr as the sweep runs "
        "(done/total)",
    )
    p_suite.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent run cache for this sweep",
    )
    p_suite.add_argument(
        "--cache-dir", help="override the run-cache directory"
    )
    p_suite.add_argument(
        "--faults",
        choices=fault_scenario_names(),
        help="run the whole suite (baseline included) under a named "
        "fault scenario; adds SLO/error columns to the output",
    )
    p_suite.add_argument(
        "--no-early-stop",
        action="store_true",
        help="always measure the full window instead of stopping once "
        "latency windows converge (slower, byte-stable reports)",
    )
    p_suite.add_argument("--json", help="write the report to this JSON file")
    p_suite.set_defaults(func=_cmd_suite)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent run cache"
    )
    p_cache.add_argument(
        "cache_command", choices=["info", "clear"], help="what to do"
    )
    p_cache.add_argument(
        "--cache-dir", help="override the run-cache directory"
    )
    p_cache.add_argument(
        "--stale",
        action="store_true",
        help="with clear: drop only entries the current code can never "
        "serve (orphaned by a code or model edit, or corrupt), keeping "
        "current entries warm",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_workloads = sub.add_parser(
        "workloads", help="inspect every registered workload"
    )
    p_workloads.add_argument(
        "workloads_command",
        choices=["list"],
        help="what to do",
    )
    p_workloads.set_defaults(func=_cmd_workloads)

    p_faults = sub.add_parser(
        "faults", help="inspect the named fault scenarios"
    )
    p_faults.add_argument(
        "faults_command",
        choices=["list"],
        help="what to do",
    )
    p_faults.set_defaults(func=_cmd_faults)

    sub.add_parser(
        "microbench", help="run the datacenter-tax microbenchmarks"
    ).set_defaults(func=_cmd_microbench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
