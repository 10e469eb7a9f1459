"""The continuous-batching engine: KV ledger, preemption, prefix cache."""

import functools
import random

import pytest

from repro.llm.catalog import get_mix
from repro.llm.engine import (
    KV_BYTES_PER_TOKEN,
    EngineParams,
    EngineStats,
    KvLedger,
    LlmReplica,
    Sequence,
    expected_turn_instructions,
)
from repro.oskernel.scheduler import CpuScheduler
from repro.sim.engine import Event
from repro.workloads.base import RunConfig
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness
from repro.workloads.scenarios import apply_fault_scenario


def _harness(config=None):
    chars = BENCHMARK_PROFILES["llmbench"]
    return BenchmarkHarness(config or RunConfig(), chars)


def _run_sequences(params, specs, until=60.0):
    """Submit (prompt, output) pairs to one replica; run to completion."""
    harness = _harness()
    replica = LlmReplica(harness, params)
    done = []
    for index, (prompt, output) in enumerate(specs):
        seq = Sequence(seq_id=index, prompt_tokens=prompt, output_tokens=output)
        done.append(replica.submit(seq))

    def waiter():
        for event in done:
            yield event
        harness.env.stop()

    harness.env.process(waiter())
    harness.env.run(until=until)
    return replica


class TestEngineParams:
    def test_defaults_valid(self):
        params = EngineParams()
        assert params.kv_budget_tokens == 12_500

    def test_validation(self):
        for bad in (
            {"max_batch_slots": 0},
            {"kv_budget_bytes": 0.0},
            {"kv_bytes_per_token": -1.0},
            {"prefill_instr_per_token": 0.0},
            {"decode_instr_per_token": 0.0},
            {"decode_batch_efficiency": 1.5},
            {"prefix_cache_entries": 0},
        ):
            with pytest.raises(ValueError):
                EngineParams(**bad)

    def test_decode_step_is_sublinear(self):
        params = EngineParams(decode_batch_efficiency=0.25)
        one = params.decode_step_instructions(1)
        eight = params.decode_step_instructions(8)
        assert one == params.decode_instr_per_token
        assert eight < 8 * one
        assert eight == one * (1 + 0.25 * 7)

    def test_expected_turn_instructions_positive(self):
        params = EngineParams()
        for name in ("chat", "codegen", "rag_summarize", "long_reasoning"):
            assert expected_turn_instructions(get_mix(name), params) > 0


class TestKvLedger:
    def test_reserve_release_accounting(self):
        ledger = KvLedger(100, 10.0)
        assert ledger.try_reserve(60)
        assert ledger.try_reserve(40)
        assert not ledger.try_reserve(1)
        assert ledger.peak_tokens == 100
        assert ledger.peak_bytes == 1000.0
        ledger.release(50)
        assert ledger.resident_tokens == 50
        assert ledger.peak_tokens == 100

    def test_force_reserve_counts_overflow(self):
        ledger = KvLedger(100, 10.0)
        ledger.force_reserve(130)
        assert ledger.resident_tokens == 130
        assert ledger.overflow_tokens == 30

    def test_over_release_raises(self):
        ledger = KvLedger(100, 10.0)
        with pytest.raises(ValueError):
            ledger.release(1)


class TestContinuousBatching:
    def test_all_sequences_complete(self):
        replica = _run_sequences(EngineParams(), [(64, 32)] * 8)
        assert replica.stats.completions == 8
        assert replica.stats.decoded_tokens == 8 * 32
        assert not replica.active and not replica.pending
        assert replica.kv.resident_tokens == 0

    def test_queue_beyond_slots(self):
        params = EngineParams(max_batch_slots=2)
        replica = _run_sequences(params, [(32, 16)] * 6)
        assert replica.stats.completions == 6
        assert replica.stats.max_queue_depth >= 4

    def test_batched_decode_cheaper_than_serial(self):
        # 4 sequences batched finish in fewer engine steps' worth of
        # sim time than 4 run through a slots=1 replica.
        def total_time(slots):
            harness = _harness()
            replica = LlmReplica(harness, EngineParams(max_batch_slots=slots))
            done = [
                replica.submit(Sequence(i, 32, 64)) for i in range(4)
            ]

            def waiter():
                for event in done:
                    yield event
                harness.env.stop()

            harness.env.process(waiter())
            harness.env.run(until=60.0)
            assert replica.stats.completions == 4
            return harness.env.now

        assert total_time(4) < total_time(1)


class TestKvExhaustion:
    """The pinned acceptance test: a tiny HBM budget must demonstrably
    queue and preempt sessions rather than over-admitting them."""

    def test_exhaustion_preempts_and_blocks(self):
        params = EngineParams(
            max_batch_slots=4,
            kv_budget_bytes=200.0 * 160_000.0,  # 200 tokens of KV
        )
        assert params.kv_budget_tokens == 200
        replica = _run_sequences(params, [(60, 80)] * 4, until=120.0)
        assert replica.stats.completions == 4
        assert replica.stats.preemptions > 0
        assert replica.stats.admission_blocked_steps > 0
        assert replica.kv.peak_tokens <= 200
        assert replica.kv.resident_tokens == 0

    def test_preempted_sequence_reprefills(self):
        params = EngineParams(
            max_batch_slots=2, kv_budget_bytes=150.0 * 160_000.0
        )
        replica = _run_sequences(params, [(50, 60)] * 2, until=120.0)
        assert replica.stats.completions == 2
        # A preemption forces its victim back through prefill, so
        # prefill charged more tokens than the prompts alone.
        assert replica.stats.preemptions > 0
        assert replica.stats.prefill_tokens > 2 * 50

    def test_lone_oversized_sequence_overflows_not_deadlocks(self):
        params = EngineParams(
            max_batch_slots=2, kv_budget_bytes=40.0 * 160_000.0
        )
        replica = _run_sequences(params, [(60, 30)], until=120.0)
        assert replica.stats.completions == 1
        assert replica.kv.overflow_tokens > 0


class TestPrefixCache:
    def test_shared_prefix_discounts_prefill(self):
        harness = _harness()
        params = EngineParams()
        replica = LlmReplica(harness, params)
        done = [
            replica.submit(
                Sequence(i, 128, 8, prefix_group=3, prefix_tokens=96)
            )
            for i in range(4)
        ]

        def waiter():
            for event in done:
                yield event
            harness.env.stop()

        harness.env.process(waiter())
        harness.env.run(until=60.0)
        stats = replica.stats
        assert stats.prefix_lookups == 4
        # First lookup misses (installs the prefix), the rest hit.
        assert stats.prefix_hits == 3
        assert stats.cached_prefix_tokens == 3 * 96

    def test_unique_prompts_never_touch_the_cache(self):
        replica = _run_sequences(EngineParams(), [(64, 8)] * 3)
        assert replica.stats.prefix_lookups == 0


class TestEngineStats:
    def test_reset_zeroes_everything(self):
        stats = EngineStats(
            steps=5, completions=2, prefill_tokens=10, decoded_tokens=20,
            preemptions=1, admission_blocked_steps=3, max_queue_depth=4,
            prefix_lookups=2, prefix_hits=1, cached_prefix_tokens=6,
        )
        stats.reset()
        assert stats == EngineStats()


class TestTokenCallbacks:
    def test_ttft_and_itl_observed(self):
        harness = _harness()
        ttft, gaps = [], []
        replica = LlmReplica(
            harness,
            EngineParams(),
            on_first_token=lambda seq, s: ttft.append(s),
            on_token=lambda gap, count: gaps.extend([gap] * count),
        )
        done = replica.submit(Sequence(0, 32, 16))

        def waiter():
            yield done
            harness.env.stop()

        harness.env.process(waiter())
        harness.env.run(until=60.0)
        assert len(ttft) == 1 and ttft[0] > 0
        assert len(gaps) == 15  # 16 tokens -> 15 inter-token gaps
        assert all(g > 0 for g in gaps)


class _PerTokenReplica(LlmReplica):
    """Reference replica: the per-token decode loop the batched step
    replaced.  Prefill rescans ``active``, decode is priced by
    ``decode_step_instructions`` every step, every sequence grows its KV
    through ``_grow_kv`` and every token is its own ``on_token(gap, 1)``
    call.  Like the replica, it holds each burst while the server is
    offline.  It also counts sequences that preempted themselves, and
    tokens decoded after a completion freed KV earlier in the same
    step (where a bulk reservation must track the peak)."""

    self_preemptions = 0
    growth_after_completion = 0

    def _loop(self):
        env = self.env
        params = self.params
        stats = self.stats
        while True:
            if not self.active and not self.pending:
                self._wake = Event(env)
                yield self._wake
                self._wake = None
            self._admit()
            fresh = [s for s in self.active if s.needs_prefill]
            if fresh:
                instructions = 0.0
                for seq in fresh:
                    tokens = seq.context_tokens
                    cached = self._prefill_discount(seq)
                    instructions += (tokens - cached) * (
                        params.prefill_instr_per_token
                    )
                    stats.prefill_tokens += tokens
                    stats.cached_prefix_tokens += cached
                    seq.needs_prefill = False
                if instructions > 0:
                    yield from self.harness.wait_online()
                    yield from self.harness.burst(instructions)
            if not self.active:
                continue
            yield from self.harness.wait_online()
            yield from self.harness.burst(
                params.decode_step_instructions(len(self.active))
            )
            stats.steps += 1
            now = env.now
            completed = False
            for seq in list(self.active):
                if seq.needs_prefill:
                    continue  # preempted by an earlier sequence's growth
                if not self._grow_kv(seq):
                    self.self_preemptions += 1
                    continue
                self.growth_after_completion += completed
                seq.decoded += 1
                stats.decoded_tokens += 1
                if seq.first_token_at is None:
                    seq.first_token_at = now
                    if self.on_first_token is not None:
                        self.on_first_token(seq, now - seq.submitted_at)
                elif self.on_token is not None:
                    self.on_token(now - seq.last_token_at, 1)
                seq.last_token_at = now
                if seq.decoded >= seq.target_tokens:
                    self.active.remove(seq)
                    self.kv.release(seq.kv_tokens)
                    seq.kv_tokens = 0
                    stats.completions += 1
                    seq.done.succeed()
                    completed = True


def _random_mix(seed):
    """A seeded replica shape and arrival schedule.

    Budgets run from a few prompts' worth of KV down to less than one
    long prompt, so admission blocks, residents preempt each other and
    themselves, and a lone sequence overflows the budget.
    """
    rng = random.Random(seed)
    params = EngineParams(
        max_batch_slots=rng.randint(1, 6),
        kv_budget_bytes=rng.choice((40, 90, 160, 400, 12_500))
        * KV_BYTES_PER_TOKEN,
        prefix_cache_entries=2,
    )
    arrivals = []
    for seq_id in range(rng.randint(4, 24)):
        prompt = rng.randint(1, 80)
        group = rng.choice((-1, -1, 0, 1, 2))
        arrivals.append(
            (
                # Same-instant bursts and spread arrivals, in steps.
                rng.choice((0, 0, rng.randint(1, 30))),
                seq_id,
                prompt,
                rng.randint(1, 60),
                group,
                rng.randint(1, prompt) if group >= 0 else 0,
            )
        )
    return params, arrivals


def _drive(replica_cls, params, arrivals, config=None, setup=None, bounds=()):
    """Run one replica over ``arrivals``; return everything observable.

    ``config`` replaces the default run config, ``setup(harness)``
    starts further processes before the run, and the run stops at each
    of ``bounds`` on its way.
    """
    harness = _harness(config)
    env = harness.env
    ttft, itl_calls = [], []
    replica = replica_cls(
        harness,
        params,
        on_first_token=lambda seq, s: ttft.append((seq.seq_id, s)),
        on_token=lambda gap, count: itl_calls.append((env.now, gap, count)),
    )
    step = params.decode_step_instructions(1) / harness.server.per_logical_ips
    seqs = []

    def submitter():
        done = []
        for steps, seq_id, prompt, output, group, prefix in arrivals:
            if steps:
                yield env.sleep(steps * step)
            seq = Sequence(seq_id, prompt, output, group, prefix)
            seqs.append(seq)
            done.append(replica.submit(seq))
        for event in done:
            yield event
        env.stop()

    env.process(submitter())
    if setup is not None:
        setup(harness)
    for bound in bounds:
        env.run(until=bound)
    env.run(until=600.0)
    return {
        "kv": (
            replica.kv.resident_tokens,
            replica.kv.peak_tokens,
            replica.kv.overflow_tokens,
        ),
        "stats": replica.stats,
        "seqs": [
            (
                s.kv_tokens,
                s.decoded,
                s.preemptions,
                s.first_token_at,
                s.last_token_at,
            )
            for s in seqs
        ],
        "ttft": ttft,
        "itl": [gap for _, gap, count in itl_calls for _ in range(count)],
        "itl_calls": itl_calls,
        "clock": (env.now, env._seq),
        "scheduler": harness.scheduler.stats,
        "replica": replica,
    }


#: What a replica's run must match the per-token reference in.
COMPARED = ("kv", "stats", "seqs", "ttft", "itl", "clock", "scheduler")


def _per_step_only(monkeypatch):
    """Force every decode step through the general path."""
    monkeypatch.setattr(LlmReplica, "_uniform_steps", lambda self, now: 0)


class TestBatchedDecodeMatchesPerToken:
    """The batched step (one KV reservation when the step's growth
    fits, per-sequence preemption otherwise, ITL in runs) against the
    per-token reference loop, over seeded sequence mixes."""

    @pytest.mark.parametrize("seed", range(24))
    def test_same_observables(self, seed):
        params, arrivals = _random_mix(seed)
        batched = _drive(LlmReplica, params, arrivals)
        reference = _drive(_PerTokenReplica, params, arrivals)
        for key in COMPARED:
            assert batched[key] == reference[key], key
        assert batched["stats"].completions == len(arrivals)
        # One call per maximal run: within one step (one instant)
        # consecutive calls carry different gaps.
        calls = batched["itl_calls"]
        assert all(count >= 1 for _, _, count in calls)
        for (now_a, gap_a, _), (now_b, gap_b, _) in zip(calls, calls[1:]):
            assert now_a != now_b or gap_a != gap_b

    def test_mixes_cover_every_kv_regime(self):
        """The seeds above are not vacuous: across them admission
        blocks, sequences preempt others and themselves, a lone
        sequence overflows, and sequences grow after a completion freed
        KV earlier in the same step."""
        totals = dict.fromkeys(
            ("blocked", "preempted", "self", "overflow", "after_completion"), 0
        )
        for seed in range(24):
            params, arrivals = _random_mix(seed)
            replica = _drive(_PerTokenReplica, params, arrivals)["replica"]
            totals["blocked"] += replica.stats.admission_blocked_steps
            totals["preempted"] += replica.stats.preemptions
            totals["self"] += replica.self_preemptions
            totals["overflow"] += replica.kv.overflow_tokens
            totals["after_completion"] += replica.growth_after_completion
        assert all(totals.values()), totals


class TestDecodeBurstTable:
    """Decode steps replay bursts the replica tabulated per resident
    count, instead of building each one through ``harness.burst``."""

    @pytest.mark.parametrize("seed", [5, 12])
    def test_decode_bursts_reach_execute_with_per_step_floats(
        self, seed, monkeypatch
    ):
        # Uniform steps price their bursts inline; with the run off,
        # every decode step reaches ``execute``.
        _per_step_only(monkeypatch)
        params, arrivals = _random_mix(seed)
        replicas, in_burst, decode_calls = [], [], []
        real_execute = CpuScheduler.execute
        real_burst = BenchmarkHarness.burst

        def burst(self, *args, **kwargs):
            # Prefill goes through harness.burst; decode does not.
            in_burst.append(True)
            try:
                return real_burst(self, *args, **kwargs)
            finally:
                in_burst.pop()

        def execute(self, user, kernel=0.0, dispatches=1):
            if not in_burst:
                residents = len(replicas[0].active)
                decode_calls.append((residents, (user, kernel, dispatches)))
            return real_execute(self, user, kernel, dispatches)

        class RecordedReplica(LlmReplica):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                replicas.append(self)

        monkeypatch.setattr(CpuScheduler, "execute", execute)
        monkeypatch.setattr(BenchmarkHarness, "burst", burst)
        replica = _drive(RecordedReplica, params, arrivals)["replica"]
        assert replica.stats.preemptions > 0
        assert len(decode_calls) == replica.stats.steps
        assert len({residents for residents, _ in decode_calls}) > 1
        # The per-step path this table replaced, written out.
        harness = replica.harness
        kf = harness.chars.kernel_frac
        for residents, args in decode_calls:
            seconds = (
                params.decode_step_instructions(residents)
                / harness.server.per_logical_ips
                * harness.batch
            )
            assert args == (seconds * (1.0 - kf), seconds * kf, harness.batch)

    @pytest.mark.parametrize("seed", [5, 12])
    def test_uniform_runs_book_the_per_step_stats(self, seed, monkeypatch):
        """Uniform steps skip ``execute`` yet book the scheduler and the
        engine exactly as the per-step path does."""
        params, arrivals = _random_mix(seed)
        calls = []
        real_execute = CpuScheduler.execute

        def execute(self, *args):
            calls.append(args)
            return real_execute(self, *args)

        monkeypatch.setattr(CpuScheduler, "execute", execute)
        with monkeypatch.context() as forced_off:
            _per_step_only(forced_off)
            per_step = _drive(LlmReplica, params, arrivals)
        per_step_calls = len(calls)
        del calls[:]
        run = _drive(LlmReplica, params, arrivals)
        assert len(calls) < per_step_calls
        assert run["scheduler"] == per_step["scheduler"]
        assert run["stats"] == per_step["stats"]


class _TracedReplica(LlmReplica):
    """Records each uniform run as ``[limit, steps taken, end]``, and
    each uniform step's end as ``(run index, time)``.

    ``end`` names the first of the run's checks that failed when it
    ended, or ``"limit"`` once it took all its steps.  A uniform step
    makes exactly one ``on_token`` call and no ``execute`` call, and
    nothing moves between that call and the run's next check, so the
    callback sees what the check sees.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs = []
        self.step_ends = []
        self._open = False
        on_token = self.on_token
        scheduler = self.harness.scheduler
        execute = scheduler.execute

        def traced_on_token(gap, count):
            on_token(gap, count)
            if self._open:
                run = self.runs[-1]
                run[1] += 1
                run[2] = self._end()
                self.step_ends.append((len(self.runs) - 1, self.env.now))

        def traced_execute(*args):
            # The general path's next burst: the run has ended.
            self._open = False
            return execute(*args)

        self.on_token = traced_on_token
        scheduler.execute = traced_execute

    def _uniform_steps(self, now):
        limit = super()._uniform_steps(now)
        self.runs.append([limit, 0, None])
        self.runs[-1][2] = self._end()
        self._open = True
        return limit

    def _end(self):
        limit, taken, _ = self.runs[-1]
        scheduler = self.harness.scheduler
        cores = scheduler.cores
        if taken >= limit:
            return "limit"
        if scheduler.offline:
            return "offline"
        if self.pending and len(self.active) < self.params.max_batch_slots:
            return "admission"
        if cores._waiters:
            return "waiters"
        if cores._in_use >= cores.capacity:
            return "full"
        if not self.env._grant_is_next():
            return "not next"
        return None


def _long_mix(seed):
    """Ample KV and outputs of hundreds of tokens: decode runs long, and
    later arrivals land in the middle of one."""
    rng = random.Random(seed)
    params = EngineParams(
        max_batch_slots=rng.randint(2, 8), prefix_cache_entries=2
    )
    arrivals = []
    for seq_id in range(rng.randint(8, 16)):
        prompt = rng.randint(1, 200)
        group = rng.choice((-1, 0, 1))
        arrivals.append(
            (
                rng.choice((0, rng.randint(1, 400))),
                seq_id,
                prompt,
                rng.randint(100, 600),
                group,
                rng.randint(1, prompt) if group >= 0 else 0,
            )
        )
    return params, arrivals


#: ``blackout`` crashes the server over [0.3, 0.45) of this window.
_FAULT_CONFIG = apply_fault_scenario(
    RunConfig(warmup_seconds=0.0, measure_seconds=0.2), "blackout"
)


def _faults_and_competitor(harness, ticker_at=None):
    """Start ``blackout``'s injector, a process that moves the scheduler's
    fault slowdown, brownout relief and clock mid-run, a competitor that
    takes every core, then more cores than there are, and a ticker that
    ends at ``ticker_at``."""
    env = harness.env
    scheduler = harness.scheduler
    cores = scheduler.cores
    harness.injector.start()
    base_freq = scheduler.freq_ghz

    def knobs():
        for slowdown, relief, freq in (
            (1.5, 1.0, 1.0),
            (1.5, 1.25, 0.7),
            (1.0, 1.25, 0.7),
            (1.0, 1.0, 1.0),
            (2.0, 1.5, 0.5),
            (1.0, 1.0, 1.0),
        ):
            yield env.sleep(0.0137)
            scheduler.fault_slowdown = slowdown
            scheduler.relief_speedup = relief
            scheduler.freq_ghz = base_freq * freq

    def competitor():
        # Every core (the replica's step frees the last one to a waiter),
        # then one more than every core (a waiter stays queued).
        for start, count in (
            (0.0311, cores.capacity),
            (0.0519, cores.capacity + 1),
        ):
            yield env.sleep(start - env.now)
            held = [cores.request() for _ in range(count)]
            yield env.sleep(0.0023)
            for request in held:
                cores.release(request)

    def ticker():
        # Started at 0, so it wakes at exactly ``ticker_at``.
        yield env.sleep(ticker_at)

    env.process(knobs())
    env.process(competitor())
    if ticker_at is not None:
        env.process(ticker())


def _faulted(replica_cls, params, arrivals):
    """:func:`_drive` under :func:`_faults_and_competitor`, with two
    cuts placed inside uniform runs: the ticker ends at one step's end,
    and the run's ``until`` bound falls on a later one."""
    ends = _drive(
        _TracedReplica, params, arrivals, _FAULT_CONFIG, _faults_and_competitor
    )["replica"].step_ends
    # Step ends with a step of the same run on either side.
    inside = [
        index
        for index in range(1, len(ends) - 1)
        if ends[index - 1][0] == ends[index][0] == ends[index + 1][0]
    ]
    ticker = inside[len(inside) // 3]
    bound = next(index for index in inside if ends[index][0] > ends[ticker][0])
    return _drive(
        replica_cls,
        params,
        arrivals,
        _FAULT_CONFIG,
        functools.partial(_faults_and_competitor, ticker_at=ends[ticker][1]),
        bounds=((ends[bound - 1][1] + ends[bound][1]) / 2, ends[bound][1]),
    )


class TestUniformDecodeRuns:
    """Uniform runs against the per-token reference where they dominate
    (long outputs, ample KV) and where something cuts them."""

    @pytest.mark.parametrize("seed", range(6))
    def test_long_outputs_match_per_token(self, seed):
        params, arrivals = _long_mix(seed)
        run = _drive(_TracedReplica, params, arrivals)
        reference = _drive(_PerTokenReplica, params, arrivals)
        for key in COMPARED:
            assert run[key] == reference[key], key
        uniform = sum(taken for _, taken, _ in run["replica"].runs)
        assert uniform > 0.9 * run["stats"].steps

    @pytest.mark.parametrize("seed", range(6))
    def test_faults_and_competitor_match_per_token(self, seed):
        params, arrivals = _long_mix(seed)
        run = _faulted(_TracedReplica, params, arrivals)
        reference = _faulted(_PerTokenReplica, params, arrivals)
        for key in COMPARED:
            assert run[key] == reference[key], key
        assert run["replica"].harness.injector.log

    def test_every_check_cuts_a_run(self):
        """Across the seeds above, each of the run's checks ends at
        least one run that had taken steps; ``not next`` twice per seed
        (the ticker and the ``until`` bound)."""
        ends = []
        for seed in range(6):
            params, arrivals = _long_mix(seed)
            replica = _faulted(_TracedReplica, params, arrivals)["replica"]
            ends += [end for _, taken, end in replica.runs if taken]
        assert ends.count("not next") == 12
        assert set(ends) >= {"offline", "admission", "waiters", "full"}, ends
