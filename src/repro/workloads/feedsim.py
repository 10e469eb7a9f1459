"""FeedSim: the newsfeed-ranking benchmark.

Architecture (Section 3.2): OLDISim-style request DAG — a root request
fans out to leaf tasks (feature extraction for candidate stories, each
with backend I/O), the results are aggregated and ranked, and the
response is composed with compression/serialization tax on the way out.
The client searches for the maximum request rate that keeps p95 latency
within the 500ms SLO.

The SLO — not CPU saturation — is the binding constraint, which is why
FeedSim (and its production counterpart) run at only 50-70% CPU in
Figure 9.  Two mechanisms produce that behaviour here, both real
properties of ranking systems: leaf work is heavy-tailed (feature
extraction cost varies by candidate), and the request must join on the
*slowest* leaf, so the request tail amplifies the leaf tail.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Generator, Optional

from repro.loadgen.generators import Handler, Request
from repro.loadgen.slo import SLO, ProbeResult, SloSearchResult, find_max_load
from repro.sim.events import all_of
from repro.sim.rng import lognormal_sampler
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import (
    BENCHMARK_PROFILES,
    PRODUCTION_PROFILES,
    get_profile,
)
from repro.workloads.runner import BenchmarkHarness, ThreadPool

#: The paper's SLO: p95 latency under 500 ms.
FEEDSIM_SLO = SLO(percentile=95.0, latency_seconds=0.5)
#: Leaf fanout per request (Table 1: RPC fanout N(10)).
LEAF_FANOUT = 10
#: Instruction split across the request DAG.
ROOT_INSTR_FRACTION = 0.10
LEAF_INSTR_FRACTION = 0.70   # divided across the fanout
RANK_INSTR_FRACTION = 0.15
COMPOSE_INSTR_FRACTION = 0.05
#: Leaf cost variability (coefficient of variation of the lognormal).
LEAF_COST_CV = 1.35
#: Backend I/O wait per leaf (seconds, no CPU consumed): low-variance
#: lognormal — production backends are SSD-backed with tight tails, so
#: the request tail is dominated by compute variability, which scales
#: with core speed.
LEAF_IO_MEAN_S = 0.050
LEAF_IO_CV = 0.4
#: Backend congestion coupling: leaf I/O latency inflates with server
#: occupancy (the backend tier shares the box and the kernel in the
#: single-machine benchmark, and is co-loaded in production).  This is
#: the mechanism that makes the 500ms SLO bind at 50-70% CPU rather
#: than at saturation (Figure 9).
LEAF_IO_CONGESTION = 3.0
#: Frozen distribution parameterisations (draw-identical to the
#: per-call function form; the SLO search re-enters the handler ~10x
#: per run, so the per-draw parameter derivation added up).
_LEAF_IO_SAMPLER = lognormal_sampler(LEAF_IO_MEAN_S, LEAF_IO_CV)
_LEAF_COST_SAMPLER = lognormal_sampler(1.0, LEAF_COST_CV)

class FeedSim(Workload):
    """Newsfeed ranking under a tail-latency SLO."""

    name = "feedsim"
    category = "ranking"
    metric_name = "RPS under p95<500ms SLO"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["feedsim"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def _build_handler(self, harness: BenchmarkHarness) -> Handler:
        cores = harness.sku.cpu.logical_cores
        # OLDISim worker pool: thread-to-core ratio N(10).
        pool: ThreadPool = harness.make_pool("workers", cores * 4)
        instr = self._chars.instructions_per_request
        mean_leaf_instr = instr * LEAF_INSTR_FRACTION / LEAF_FANOUT
        leaf_rng = harness.rng.stream("leaf-cost")
        io_rng = harness.rng.stream("leaf-io")
        env = harness.env

        sched = harness.scheduler

        def leaf_work(cost_scale: float) -> Generator:
            # Backend I/O first (no CPU), then feature extraction.  The
            # I/O wait stretches with core occupancy: the backend is
            # co-loaded with the serving tier.
            occupancy = sched.cores.count / sched.logical_cores
            congestion = 1.0 + LEAF_IO_CONGESTION * occupancy * occupancy
            yield env.sleep(_LEAF_IO_SAMPLER.sample(io_rng) * congestion)
            yield from harness.burst(mean_leaf_instr * cost_scale)

        def handler(request: Request) -> Generator:
            # Root: parse + candidate selection.
            yield pool.submit(
                lambda: harness.burst(instr * ROOT_INSTR_FRACTION)
            )
            # Fanout: leaves run in parallel; the request joins on the
            # slowest one, amplifying the leaf tail.
            leaf_events = []
            for _ in range(LEAF_FANOUT):
                scale = _LEAF_COST_SAMPLER.sample(leaf_rng)
                leaf_events.append(
                    pool.submit(lambda s=scale: leaf_work(s))
                )
            yield all_of(env, leaf_events)
            # Ranking + response composition (compression tax).
            yield pool.submit(lambda: harness.burst(instr * RANK_INSTR_FRACTION))
            yield pool.submit(
                lambda: harness.burst(instr * COMPOSE_INSTR_FRACTION)
            )

        return handler

    def _measure(self, config: RunConfig, offered_rps: float) -> WorkloadResult:
        """One run at a fixed offered load, on a fresh harness."""
        harness = BenchmarkHarness(config, self._chars)
        handler = self._build_handler(harness)
        return harness.run_open_loop(handler, offered_rps=offered_rps)

    def _probe(self, config: RunConfig, offered_rps: float) -> ProbeResult:
        """One trial at a fixed offered load."""
        result = self._measure(config, offered_rps)
        latency = result.latency
        errors = latency.get("errors", 0)
        return ProbeResult(
            offered_rps=offered_rps,
            achieved_rps=result.throughput_rps,
            latency_at_percentile=latency.get("p95", float("inf")),
            # Errors over every finished request, successes included.
            error_rate=errors / max(1, latency.get("count", 0) + errors),
            cpu_util=result.cpu_util,
            run=result,
        )

    def search(self, config: RunConfig) -> SloSearchResult:
        """Find max load under the SLO (the FeedSim methodology)."""
        harness = BenchmarkHarness(config, self._chars)
        capacity = harness.server.capacity_rps()
        return find_max_load(
            probe=lambda rate: self._probe(config, rate),
            slo=FEEDSIM_SLO,
            low_rps=capacity * 0.20,
            high_rps=capacity * 1.05 * config.load_scale,
            tolerance=0.04,
        )

    def _operating_point(self, config: RunConfig):
        """(operating_rps, slo_met, probes_run, p95, run) of the SLO search;
        ``run`` is the probe at ``operating_rps`` (``None`` at the floor).

        Only the registry profiles, whose identity is stable for the
        life of the process, share the memoized search; a caller-built
        profile may be mutated or freed between runs, so it searches
        every time.
        """
        chars = self._chars
        if chars is BENCHMARK_PROFILES.get("feedsim") or chars is (
            PRODUCTION_PROFILES.get("ranking-prod")
        ):
            return _registry_operating_point(chars.name, config)
        return self._search_point(config)

    def _search_point(self, config: RunConfig):
        try:
            search = self.search(config)
            return (
                search.max_rps,
                True,
                float(search.probes_run),
                search.probe.latency_at_percentile,
                search.probe.run,
            )
        except ValueError:
            # The SLO cannot be met at any load: on a pathologically
            # slow CPU the request's own critical path exceeds 500ms.
            # The benchmark still reports a (floor) throughput — the
            # machine serves traffic, it just always violates the SLO.
            harness = BenchmarkHarness(config, self._chars)
            return (harness.server.capacity_rps() * 0.05, False, None, None, None)

    def run(self, config: RunConfig) -> WorkloadResult:
        operating_rps, slo_met, probes_run, search_p95, probed = (
            self._operating_point(config)
        )
        if probed is None:
            result = self._measure(config, operating_rps)
        else:
            result = copy.deepcopy(probed)  # the memoized probe stays as is
        result.extra["slo_met"] = float(slo_met)
        result.extra["slo_max_rps"] = operating_rps
        if probes_run is not None:
            result.extra["slo_probes"] = probes_run
            result.extra["slo_p95_seconds"] = search_p95
        if result.throughput_rps <= 0:
            result.throughput_rps = operating_rps * 0.5
        return result


@lru_cache(maxsize=4)
def _registry_operating_point(profile: str, config: RunConfig):
    """The SLO-search operating point of a registry profile, memoized.

    The search is FeedSim's deterministic "tree build": ~10 probe runs,
    each on a fresh harness whose RNG streams derive solely from
    ``config.seed``, so the converged operating point is a pure
    function of (profile, config), and ``config`` is a frozen, hashable
    dataclass that pins everything else the search depends on (seed,
    SKU, kernel, window, load scale).  The memo keeps the probe run at
    the operating point too: it is the run :meth:`FeedSim.run` reports.
    """
    return FeedSim(get_profile(profile))._search_point(config)
