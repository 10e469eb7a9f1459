"""Microbenchmark the discrete-event engine's hot path.

Two engine-level scenarios plus one end-to-end workload point:

* **timeout_ring** — N processes each looping over plain timeouts: the
  floor of per-event engine overhead (schedule + pop + resume).
* **request_loop** — an open-loop generator driving requests through a
  ThreadPool whose work items are CPU-burst timeouts: the shape of the
  steady-state request path every benchmark runs.
* **cold_point** — one taobench point executed end to end (the unit of
  work a sweep repeats 24+ times).

The throughput metric is *scheduled events per wall second*, computed
from the environment's monotonically increasing sequence counter — free
to read and identical in meaning across engine versions.

Writes ``BENCH_engine.json``.  With ``--check BASELINE.json`` the tool
instead compares against a checked-in baseline and exits non-zero if
either engine scenario regressed more than ``--tolerance`` (default
30%) — the CI perf smoke.

Run:
    python tools/bench_engine.py [--quick] [--output BENCH_engine.json]
    python tools/bench_engine.py --quick --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.loadgen.generators import OpenLoopGenerator
from repro.loadgen.recorder import LatencyRecorder
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams


def _sleep_fn(env: Environment):
    """The cheapest fire-and-forget delay the engine offers.

    Prefers the freelist-backed ``sleep`` and falls back to ``timeout``
    so the same tool benchmarks both engine generations fairly.
    """
    return getattr(env, "sleep", env.timeout)


def bench_timeout_ring(num_procs: int, sim_seconds: float) -> dict:
    """N processes looping over bare timeouts; pure engine overhead."""
    env = Environment()
    sleep = _sleep_fn(env)

    def ticker(delay: float):
        while True:
            yield sleep(delay)

    for i in range(num_procs):
        env.process(ticker(0.001 + 0.0001 * (i % 7)))
    start = time.perf_counter()
    env.run(until=sim_seconds)
    elapsed = time.perf_counter() - start
    return {
        "events": env._seq,
        "wall_seconds": elapsed,
        "events_per_sec": env._seq / elapsed,
    }


def bench_request_loop(rate_rps: float, sim_seconds: float) -> dict:
    """Open-loop arrivals through a thread pool: the benchmark shape."""
    from repro.workloads.runner import ThreadPool

    env = Environment()
    pool = ThreadPool(env, "workers", num_threads=64)
    rng = RngStreams(7).stream("bench-arrivals")
    recorder = LatencyRecorder()
    service_rate = rate_rps / 32.0  # ~50% pool utilization
    expovariate = RngStreams(7).stream("bench-service").expovariate
    sleep = _sleep_fn(env)
    submit = pool.submit

    def burst():
        yield sleep(expovariate(service_rate))

    def handler(request):
        yield submit(burst)

    generator = OpenLoopGenerator(
        env=env,
        rate_rps=rate_rps,
        handler=handler,
        recorder=recorder,
        rng=rng,
    )
    generator.start()
    start = time.perf_counter()
    env.run(until=sim_seconds)
    elapsed = time.perf_counter() - start
    return {
        "events": env._seq,
        "requests": generator.completed,
        "wall_seconds": elapsed,
        "events_per_sec": env._seq / elapsed,
        "requests_per_wall_sec": generator.completed / elapsed,
    }


def bench_cold_point(measure_seconds: float) -> dict:
    """One taobench point end to end — the unit a sweep repeats."""
    from repro.exec.executor import SweepExecutor
    from repro.exec.spec import RunPoint

    point = RunPoint(
        benchmark="taobench",
        sku="SKU2",
        measure_seconds=measure_seconds,
        warmup_seconds=0.3,
    )
    start = time.perf_counter()
    report = SweepExecutor(max_workers=1, use_cache=False).run([point])[0]
    elapsed = time.perf_counter() - start
    return {
        "wall_seconds": elapsed,
        "metric_value": report.metric_value,
    }


def _best_of(fn, repeat: int, key: str, lowest: bool = False) -> dict:
    """Run ``fn`` ``repeat`` times and keep the least-noisy sample.

    Microbenchmarks on a shared box are noisy in one direction only
    (interference slows them down), so best-of-N is the estimator of
    the uncontended cost.  The sample count is recorded in the result.
    """
    best = None
    for _ in range(repeat):
        result = fn()
        if (
            best is None
            or (result[key] < best[key] if lowest else result[key] > best[key])
        ):
            best = result
    best["repeats"] = repeat
    return best


def run_benches(quick: bool, repeat: int) -> dict:
    if quick:
        ring = _best_of(
            lambda: bench_timeout_ring(num_procs=200, sim_seconds=2.0),
            repeat, "events_per_sec")
        loop = _best_of(
            lambda: bench_request_loop(rate_rps=20_000.0, sim_seconds=2.0),
            repeat, "events_per_sec")
        point = bench_cold_point(measure_seconds=0.5)
    else:
        ring = _best_of(
            lambda: bench_timeout_ring(num_procs=500, sim_seconds=5.0),
            repeat, "events_per_sec")
        loop = _best_of(
            lambda: bench_request_loop(rate_rps=40_000.0, sim_seconds=5.0),
            repeat, "events_per_sec")
        point = _best_of(
            lambda: bench_cold_point(measure_seconds=1.5),
            repeat, "wall_seconds", lowest=True)
    return {"timeout_ring": ring, "request_loop": loop, "cold_point": point}


def check_against_baseline(
    results: dict, baseline_path: str, tolerance: float, quick: bool = False
) -> int:
    """Compare against the baseline recorded for the *same* mode.

    Quick and full runs use different scenario sizes and warm up
    differently, so their events/sec are not comparable; a quick check
    needs the ``quick`` baseline key (``--quick --label quick`` records
    it).
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    reference = None
    if quick:
        reference = baseline.get("quick")
    reference = (
        reference or baseline.get("after") or baseline.get("before") or baseline
    )
    failed = False
    for name in ("timeout_ring", "request_loop"):
        base = reference[name]["events_per_sec"]
        now = results[name]["events_per_sec"]
        floor = base * (1.0 - tolerance)
        status = "ok" if now >= floor else "REGRESSED"
        if now < floor:
            failed = True
        print(
            f"{name:14s} {now:12.0f} ev/s vs baseline {base:12.0f} "
            f"(floor {floor:12.0f}) {status}"
        )
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short windows (the CI perf smoke)")
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a baseline JSON instead of writing; exit "
        "non-zero on a >tolerance regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional events/sec regression for --check",
    )
    parser.add_argument(
        "--label", default="after",
        help="top-level key to store results under (default: after)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="samples per scenario; the best is kept (noise discipline)",
    )
    args = parser.parse_args()

    results = run_benches(args.quick, max(1, args.repeat))
    for name, r in results.items():
        if "events_per_sec" in r:
            print(f"{name:14s} {r['events_per_sec']:12.0f} events/s "
                  f"({r['events']} events in {r['wall_seconds']:.2f}s)")
        else:
            print(f"{name:14s} {r['wall_seconds']:12.2f} s")

    if args.check:
        return check_against_baseline(
            results, args.check, args.tolerance, quick=args.quick
        )

    try:
        with open(args.output) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {}
    payload[args.label] = results
    if "after" in payload and "before" in payload:
        payload["speedup"] = {
            name: payload["after"][name]["events_per_sec"]
            / payload["before"][name]["events_per_sec"]
            for name in ("timeout_ring", "request_loop")
        }
        payload["speedup"]["cold_point"] = (
            payload["before"]["cold_point"]["wall_seconds"]
            / payload["after"]["cold_point"]["wall_seconds"]
        )
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
