"""Generate a consolidated markdown report of every reproduction.

Produces REPORT.md: Figure 2/3 suite scaling, the SKU2 fidelity table
(Figures 4-11 in one view), the Perf/Watt decision table (Figure 14),
and the kernel-scalability matrix (Figure 16).  A slower, richer
alternative to reading the bench harness output.

Run:
    python tools/generate_report.py [output.md]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.fidelity import projection_errors
from repro.core.suite import DCPerfSuite
from repro.hw.sku import get_sku
from repro.uarch.projection import ProjectionEngine
from repro.workloads.base import RunConfig
from repro.workloads.profiles import (
    BENCHMARK_PROFILES,
    BENCHMARK_TO_PRODUCTION,
    PRODUCTION_PROFILES,
)
from repro.workloads.spec import spec2006_suite, spec2017_suite
from repro.workloads.taobench import TaoBench
from repro.workloads.targets import BENCHMARK_TARGETS, PRODUCTION_TARGETS

X86_SKUS = ["SKU1", "SKU2", "SKU3", "SKU4"]


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def section_fig2():
    s17, s06 = spec2017_suite(), spec2006_suite()
    bench = DCPerfSuite(measure_seconds=1.0)
    prod = DCPerfSuite(variant=":prod", measure_seconds=1.0)
    prod_reports = prod.run_many(X86_SKUS)
    bench_reports = bench.run_many(X86_SKUS)
    scores = {
        "production": [
            prod.production_score(prod_reports[sku]) for sku in X86_SKUS
        ],
        "dcperf": [bench_reports[sku].overall_score for sku in X86_SKUS],
        "spec2006": [s06.score(sku) for sku in X86_SKUS],
        "spec2017": [s17.score(sku) for sku in X86_SKUS],
    }
    rows = [
        [suite] + [f"{v:.2f}" for v in values] for suite, values in scores.items()
    ]
    errors = {
        suite: projection_errors(scores[suite], scores["production"])
        for suite in ("dcperf", "spec2006", "spec2017")
    }
    error_rows = [
        [suite] + [f"{e * 100:+.1f}%" for e in values]
        for suite, values in errors.items()
    ]
    return (
        "## Figure 2 — performance normalized to SKU1\n\n"
        + md_table(["suite"] + X86_SKUS, rows)
        + "\n\n## Figure 3 — projection error vs production\n\n"
        + md_table(["suite"] + X86_SKUS, error_rows)
    )


def section_fidelity():
    engine = ProjectionEngine(get_sku("SKU2"))
    rows = []
    for bench, prod in BENCHMARK_TO_PRODUCTION.items():
        for name, profiles, targets in (
            (prod, PRODUCTION_PROFILES, PRODUCTION_TARGETS),
            (bench, BENCHMARK_PROFILES, BENCHMARK_TARGETS),
        ):
            state = engine.solve(profiles[name], cpu_util=targets[name].cpu_util)
            tmam = state.tmam
            rows.append([
                name,
                f"{tmam.frontend:.0%}/{tmam.bad_speculation:.0%}/"
                f"{tmam.backend:.0%}/{tmam.retiring:.0%}",
                f"{state.ipc_per_physical_core:.2f}",
                f"{state.misses.l1i_mpki:.0f}",
                f"{state.memory_bandwidth_gbps:.0f}",
                f"{state.effective_freq_ghz:.2f}",
                f"{state.power.total:.0%}",
            ])
    return "## SKU2 fidelity (Figures 4-11 in one view)\n\n" + md_table(
        ["workload", "TMAM FE/BS/BE/RET", "IPC", "L1I MPKI", "GB/s", "GHz",
         "power"],
        rows,
    )


def section_fig16():
    results = {}
    for sku in ("SKU4", "SKU-384"):
        for kernel in ("6.4", "6.9"):
            config = RunConfig(
                sku_name=sku, kernel_version=kernel,
                warmup_seconds=0.3, measure_seconds=1.0, load_scale=1.5,
            )
            results[(sku, kernel)] = TaoBench().run(config).throughput_rps
    base = results[("SKU4", "6.4")]
    rows = [
        [sku, kernel, f"{results[(sku, kernel)] / base * 100:.0f}%"]
        for sku in ("SKU4", "SKU-384")
        for kernel in ("6.4", "6.9")
    ]
    return "## Figure 16 — TaoBench vs kernel and core count\n\n" + md_table(
        ["sku", "kernel", "relative"], rows
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="?", default="REPORT.md",
        help="markdown file to write (default: REPORT.md)",
    )
    output = parser.parse_args().output
    start = time.time()
    parts = [
        "# DCPerf reproduction report",
        "",
        "Generated by tools/generate_report.py; see EXPERIMENTS.md for "
        "the paper-vs-measured record and benchmarks/ for per-figure "
        "shape assertions.",
        "",
        section_fig2(),
        "",
        section_fidelity(),
        "",
        section_fig16(),
        "",
    ]
    with open(output, "w") as fh:
        fh.write("\n".join(parts))
    print(f"wrote {output} in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
