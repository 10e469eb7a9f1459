"""LlmBench: session-based LLM token-serving benchmark family.

The suite's fastest-growing fleet category (the paper's §8 future-work
item) is AI serving; ``aibench`` covers single-shot DLRM ranking, and
LlmBench adds the token-streaming shape: multi-turn sessions whose
turns flow through a continuous-batching engine with a prefill phase
(compute-bound, per prompt token), a decode phase (memory-bandwidth
bound, per resident sequence), a KV-cache ledger against an HBM
budget, and a prefix cache discounting shared prompt heads.

Serving structure:

* **Arrivals are turns.**  The open-loop generator drives turn-level
  requests; each arrival either continues a session whose think time
  has elapsed (FIFO over ready sessions) or starts a fresh session
  from the deterministic :class:`~repro.llm.sessions.SessionGenerator`.
  This keeps the harness's SLO machinery per-turn — exactly the
  granularity at which serving stacks shed load — while sessions
  still correlate turns through shared prefixes and think times.
* **Token-level SLOs.**  TTFT (arrival to first token) and inter-token
  gaps feed dedicated recorders.  The engine hands each step's gaps to
  the ITL ``BucketedHistogram`` as ``(gap_seconds, count)`` runs, its
  ``record`` method's own signature: that method is the callback, and
  a step whose ``n`` gaps are equal costs one call.
  When the run carries the SLO control plane
  (``--faults overload_shed``), turn latency drives the windowed
  tracker, preemption stalls fold into its accounting, and the token
  percentiles surface as ``slo_ttft_*``/``slo_itl_*`` in the report's
  SLO section.
* **Replica sizing scales with the SKU** (one serving instance per
  :data:`CORES_PER_REPLICA` logical cores), so suite SKU sweeps move
  llmbench throughput the way they move every other benchmark.

The catalog mixes (:mod:`repro.llm.catalog`) parameterise everything
else: ``chat`` and ``codegen`` are the scored suite entries;
``rag_summarize`` and ``long_reasoning`` are unscored probes (the
latter is the KV-pressure torture test).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from repro.llm.catalog import LlmMix, get_mix
from repro.llm.engine import (
    EngineParams,
    EngineStats,
    LlmReplica,
    Sequence,
    expected_turn_instructions,
)
from repro.llm.sessions import SessionGenerator, SessionPlan
from repro.loadgen.generators import Request
from repro.loadgen.recorder import BucketedHistogram, LatencyRecorder
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness

#: Logical cores one serving replica occupies (model execution plus the
#: host-side tokenize/schedule/stream threads).
CORES_PER_REPLICA = 8
#: Offered turn rate relative to the replicas' analytic capacity.
OFFERED_FRACTION = 0.75


class _SessionState:
    """A live session: its plan plus the next turn to play."""

    __slots__ = ("plan", "next_turn")

    def __init__(self, plan: SessionPlan) -> None:
        self.plan = plan
        self.next_turn = 0


class LlmBench(Workload):
    """Token-serving benchmark over the continuous-batching engine."""

    category = "ai-inference"
    metric_name = "turns/s"

    def __init__(
        self,
        mix: str = "chat",
        name: Optional[str] = None,
        params: Optional[EngineParams] = None,
    ) -> None:
        self.mix: LlmMix = get_mix(mix)
        self.name = name or f"llmbench-{self.mix.name}"
        self.params = params or EngineParams()
        self._chars = BENCHMARK_PROFILES["llmbench"].evolve(name=self.name)

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        mix = self.mix
        params = self.params
        cores = config.sku.cpu.logical_cores
        num_replicas = max(1, cores // CORES_PER_REPLICA)

        ttft = LatencyRecorder()
        itl = BucketedHistogram()
        engine_stats = EngineStats()
        slo_tracker = harness.slo_tracker

        def on_first_token(seq: Sequence, seconds: float) -> None:
            ttft.record(seconds)

        on_preempt_resume = None
        if slo_tracker is not None:

            def on_preempt_resume(seq: Sequence, seconds: float) -> None:
                # Time spent evicted from the batch is SLO-relevant
                # stall, same as StorageBench's write stalls.
                slo_tracker.add_stall(seconds)

        replicas = [
            LlmReplica(
                harness,
                params,
                stats=engine_stats,
                on_first_token=on_first_token,
                on_token=itl.record,
                on_preempt_resume=on_preempt_resume,
            )
            for _ in range(num_replicas)
        ]

        generator = SessionGenerator(mix, harness.rng)
        ready: Deque[_SessionState] = deque()
        counters = {
            "sessions": 0,
            "turns_submitted": 0,
            "seq_id": 0,
            "sessions_finished": 0,
        }
        next_replica = [0]

        def rejoin(state: _SessionState, think: float) -> Generator:
            yield env.sleep(think)
            ready.append(state)

        def handler(request: Request) -> Generator:
            if ready:
                state = ready.popleft()
            else:
                plan = generator.plan(counters["sessions"])
                counters["sessions"] += 1
                state = _SessionState(plan)
            turn = state.plan.turns[state.next_turn]
            seq = Sequence(
                seq_id=counters["seq_id"],
                prompt_tokens=turn.prompt_tokens,
                output_tokens=turn.output_tokens,
                prefix_group=state.plan.prefix_group,
                prefix_tokens=turn.prefix_tokens,
            )
            counters["seq_id"] += 1
            counters["turns_submitted"] += 1
            replica = replicas[next_replica[0]]
            next_replica[0] = (next_replica[0] + 1) % num_replicas
            done = replica.submit(seq)
            yield done
            state.next_turn += 1
            if state.next_turn < len(state.plan.turns):
                env.process(
                    rejoin(state, state.plan.think_times_s[state.next_turn])
                )
            else:
                counters["sessions_finished"] += 1

        # Warmup-edge reset: token/engine counters restart when the
        # harness's own recorder does, so the report covers only the
        # measurement window.  KV residency (real state) carries over.
        baselines = {"sessions": 0, "turns": 0}

        def window_reset() -> Generator:
            yield env.sleep(config.warmup_seconds)
            ttft.reset()
            itl.clear()
            engine_stats.reset()
            for replica in replicas:
                replica.kv.peak_tokens = replica.kv.resident_tokens
                replica.kv.overflow_tokens = 0
            baselines["sessions"] = counters["sessions"]
            baselines["turns"] = counters["turns_submitted"]

        env.process(window_reset())

        turn_instr = expected_turn_instructions(mix, params)
        offered = (
            num_replicas
            * harness.server.per_logical_ips
            / turn_instr
            * OFFERED_FRACTION
            * config.load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)

        elapsed = result.extra.get(
            "measured_seconds", config.measure_seconds
        )
        kv_peak_tokens = max(r.kv.peak_tokens for r in replicas)
        kv_overflow = sum(r.kv.overflow_tokens for r in replicas)
        queued_now = sum(len(r.pending) for r in replicas)
        extra = result.extra
        extra["offered_rps"] = offered
        extra["llm_replicas"] = float(num_replicas)
        extra["llm_batch_slots"] = float(params.max_batch_slots)
        extra["llm_kv_budget_bytes"] = params.kv_budget_bytes
        extra["llm_kv_bytes_per_token"] = params.kv_bytes_per_token
        extra["llm_sessions_started"] = float(
            counters["sessions"] - baselines["sessions"]
        )
        extra["llm_turns_submitted"] = float(
            counters["turns_submitted"] - baselines["turns"]
        )
        extra["llm_turns_completed"] = float(engine_stats.completions)
        extra["llm_engine_steps"] = float(engine_stats.steps)
        extra["llm_prefill_tokens"] = float(engine_stats.prefill_tokens)
        extra["llm_decoded_tokens"] = float(engine_stats.decoded_tokens)
        extra["llm_cached_prefix_tokens"] = float(
            engine_stats.cached_prefix_tokens
        )
        extra["llm_tokens_per_second"] = (
            engine_stats.decoded_tokens / elapsed if elapsed > 0 else 0.0
        )
        extra["llm_prefix_hit_rate"] = (
            engine_stats.prefix_hits / engine_stats.prefix_lookups
            if engine_stats.prefix_lookups
            else 0.0
        )
        extra["llm_kv_peak_tokens"] = float(kv_peak_tokens)
        extra["llm_kv_peak_bytes"] = kv_peak_tokens * params.kv_bytes_per_token
        extra["llm_kv_overflow_tokens"] = float(kv_overflow)
        extra["llm_kv_preemptions"] = float(engine_stats.preemptions)
        extra["llm_kv_admission_blocked"] = float(
            engine_stats.admission_blocked_steps
        )
        extra["llm_queue_depth_peak"] = float(engine_stats.max_queue_depth)
        extra["llm_queue_depth_end"] = float(queued_now)
        extra["llm_ttft_p50_s"] = ttft.percentile(50.0) if len(ttft) else 0.0
        extra["llm_ttft_p99_s"] = ttft.percentile(99.0) if len(ttft) else 0.0
        extra["llm_itl_p50_s"] = itl.percentile(50.0) if itl.total else 0.0
        extra["llm_itl_p99_s"] = itl.percentile(99.0) if itl.total else 0.0
        if slo_tracker is not None:
            # Token-level SLO signals join the report's SLO section
            # (the SloControl hook passes slo_ttft_*/slo_itl_* through).
            extra["slo_ttft_p50_s"] = extra["llm_ttft_p50_s"]
            extra["slo_ttft_p99_s"] = extra["llm_ttft_p99_s"]
            extra["slo_itl_p99_s"] = extra["llm_itl_p99_s"]
        return result
