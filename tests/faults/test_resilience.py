"""Unit tests for the injector and the client-side resilience stack."""

import random

import pytest

from repro.faults.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RetriesExhaustedError,
    ServerUnavailableError,
)
from repro.faults.injector import MIN_FREQ_FRACTION, FaultInjector
from repro.faults.resilience import (
    DEADLINE_S,
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceStats,
    ServiceClient,
)
from repro.faults.schedule import FaultSpec
from repro.oskernel.kernel import get_kernel
from repro.oskernel.scheduler import CpuScheduler
from repro.sim.engine import Environment


def make_scheduler(env, cores=4, freq=2.0):
    return CpuScheduler(
        env=env, logical_cores=cores, freq_ghz=freq, kernel=get_kernel("6.9")
    )


def run_injector(schedule, window=(0.0, 1.0), cores=4, freq=2.0, probe_at=None):
    """Drive a schedule to completion; return (env, scheduler, injector,
    samples) where samples holds scheduler state at each probe time."""
    env = Environment()
    sched = make_scheduler(env, cores=cores, freq=freq)
    injector = FaultInjector(
        env, schedule, sched, random.Random(1), window[0], window[1] - window[0]
    )
    injector.start()
    samples = {}
    if probe_at:

        def probe():
            for t in sorted(probe_at):
                delay = t - env.now
                if delay > 0:
                    yield env.timeout(delay)
                samples[t] = (
                    sched.fault_slowdown,
                    sched.freq_ghz,
                    sched.offline,
                    injector.net_delay_s,
                    injector.net_loss_p,
                )

        env.process(probe())
    env.run(until=window[1] + 0.5)
    return env, sched, injector, samples


class TestFaultInjector:
    def test_slowdown_applied_and_reverted(self):
        schedule = (FaultSpec("server_slowdown", 0.2, 0.4, 2.0),)
        _, sched, injector, samples = run_injector(
            schedule, probe_at=[0.1, 0.4, 0.9]
        )
        assert samples[0.1][0] == 1.0
        assert samples[0.4][0] == 2.0
        assert samples[0.9][0] == 1.0
        assert sched.fault_slowdown == 1.0
        assert injector.events_applied == 1

    def test_overlapping_slowdowns_compound(self):
        schedule = (
            FaultSpec("server_slowdown", 0.1, 0.6, 2.0),
            FaultSpec("server_slowdown", 0.3, 0.2, 3.0),
        )
        _, sched, _, samples = run_injector(schedule, probe_at=[0.4, 0.6, 0.9])
        assert samples[0.4][0] == pytest.approx(6.0)
        assert samples[0.6][0] == pytest.approx(2.0)
        assert samples[0.9][0] == 1.0

    def test_freq_throttle_lowers_clock_and_reverts(self):
        schedule = (FaultSpec("freq_throttle", 0.2, 0.4, 0.5),)
        _, sched, _, samples = run_injector(schedule, freq=2.0, probe_at=[0.4, 0.9])
        slowdown, freq, *_ = samples[0.4]
        assert freq == pytest.approx(1.0)
        assert slowdown == pytest.approx(2.0)
        assert samples[0.9][1] == pytest.approx(2.0)
        assert sched.fault_slowdown == 1.0

    def test_throttle_floors_at_min_pstate(self):
        schedule = (
            FaultSpec("freq_throttle", 0.1, 0.5, 0.9),
            FaultSpec("freq_throttle", 0.2, 0.4, 0.9),
        )
        _, sched, _, samples = run_injector(schedule, freq=2.0, probe_at=[0.4])
        assert samples[0.4][1] == pytest.approx(MIN_FREQ_FRACTION * 2.0)

    def test_crash_marks_offline_then_restores(self):
        schedule = (FaultSpec("server_crash", 0.3, 0.2),)
        _, sched, _, samples = run_injector(schedule, probe_at=[0.2, 0.4, 0.8])
        assert samples[0.2][2] is False
        assert samples[0.4][2] is True
        assert samples[0.8][2] is False

    def test_network_faults_published(self):
        schedule = (
            FaultSpec("net_latency", 0.2, 0.4, 0.005),
            FaultSpec("net_loss", 0.2, 0.4, 0.25),
        )
        _, _, injector, samples = run_injector(schedule, probe_at=[0.4, 0.9])
        assert samples[0.4][3] == pytest.approx(0.005)
        assert samples[0.4][4] == pytest.approx(0.25)
        assert samples[0.9][3] == 0.0
        assert samples[0.9][4] == 0.0

    def test_overlapping_network_faults_republish(self):
        """Overlapping faults of one network kind publish the sum of the
        active ones (loss capped at 0.999), and the survivor's value
        once the other reverts."""
        schedule = (
            FaultSpec("net_loss", 0.0, 0.6, 0.6),
            FaultSpec("net_loss", 0.1, 0.8, 0.6),
            FaultSpec("net_latency", 0.0, 0.6, 0.002),
            FaultSpec("net_latency", 0.1, 0.8, 0.003),
        )
        _, _, _, samples = run_injector(schedule, probe_at=[0.05, 0.2, 0.7, 0.95])
        assert [samples[t][4] for t in (0.05, 0.2, 0.7, 0.95)] == [
            0.6, 0.999, 0.6, 0.0
        ]
        assert [samples[t][3] for t in (0.05, 0.2, 0.7, 0.95)] == [
            0.002, pytest.approx(0.005), 0.003, 0.0
        ]

    def test_offline_scheduler_refuses_work(self):
        env = Environment()
        sched = make_scheduler(env)
        sched.offline = True
        caught = []

        def proc():
            try:
                yield from sched.execute(0.001)
            except ServerUnavailableError:
                caught.append(True)

        env.process(proc())
        env.run()
        assert caught == [True]

    def test_log_is_deterministic(self):
        schedule = (
            FaultSpec("server_slowdown", 0.2, 0.3, 1.5),
            FaultSpec("net_loss", 0.1, 0.6, 0.2),
        )
        _, _, a, _ = run_injector(schedule)
        _, _, b, _ = run_injector(schedule)
        assert a.log == b.log
        assert len(a.log) == 4  # two applies + two reverts


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        env = Environment()
        breaker = CircuitBreaker(env, failure_threshold=3, reset_s=1.0)
        assert breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_probe_then_close(self):
        env = Environment()
        breaker = CircuitBreaker(env, failure_threshold=1, reset_s=0.5)
        breaker.record_failure()
        assert not breaker.allow()
        env.run(until=0.6)  # advance the clock past the reset window
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second caller still rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        env = Environment()
        breaker = CircuitBreaker(env, failure_threshold=1, reset_s=0.5)
        breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_failure_threshold=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(hedge_delay_s=DEADLINE_S)
        ResiliencePolicy(hedge_delay_s=DEADLINE_S / 2)

    def test_dict_roundtrip(self):
        """``as_dict`` (what the run fingerprint digests) keeps every
        field: the constructor rebuilds an equal policy from it."""
        policy = ResiliencePolicy(max_retries=5, hedge_delay_s=0.01)
        assert ResiliencePolicy(**policy.as_dict()) == policy


def make_client(env, policy, injector=None):
    return ServiceClient(env, policy, random.Random(42), injector=injector)


def run_call(env, client, work):
    """Run one client.call to completion; returns (ok, error)."""
    outcome = {}

    def proc():
        try:
            yield from client.call(work)
        except Exception as exc:
            outcome["error"] = exc
        else:
            outcome["ok"] = True

    env.process(proc())
    env.run()
    return outcome.get("ok", False), outcome.get("error")


class TestServiceClient:
    def test_success_passthrough(self):
        env = Environment()
        client = make_client(env, ResiliencePolicy())

        def work():
            yield env.timeout(0.01)

        ok, _ = run_call(env, client, work)
        assert ok
        assert client.stats.requests == 1
        assert client.stats.successes == 1
        assert client.stats.attempts == 1
        assert client.stats.retries == 0

    def test_deadline_exceeded_then_retries_exhausted(self):
        env = Environment()
        client = make_client(env, ResiliencePolicy(max_retries=1))

        def slow_work():
            yield env.timeout(10.0)

        ok, error = run_call(env, client, slow_work)
        assert not ok
        assert isinstance(error, RetriesExhaustedError)
        assert isinstance(error.last, DeadlineExceededError)
        assert error.attempts == 2
        assert client.stats.timeouts == 2
        assert client.stats.retries == 1
        assert client.stats.failures == 1

    def test_retry_succeeds_on_second_attempt(self):
        env = Environment()
        client = make_client(env, ResiliencePolicy(max_retries=2))
        calls = []

        def flaky_work():
            calls.append(1)
            # First attempt stalls past the deadline; later ones are fast.
            yield env.timeout(10.0 if len(calls) == 1 else 0.001)

        ok, _ = run_call(env, client, flaky_work)
        assert ok
        assert client.stats.retries == 1
        assert client.stats.successes == 1

    def test_breaker_rejects_after_sustained_failure(self):
        env = Environment()
        client = make_client(
            env,
            ResiliencePolicy(
                max_retries=0,
                breaker_failure_threshold=2,
                breaker_reset_s=1000.0,
            ),
        )

        def slow_work():
            yield env.timeout(10.0)

        run_call(env, client, slow_work)
        run_call(env, client, slow_work)
        ok, error = run_call(env, client, slow_work)
        assert not ok
        assert isinstance(error, CircuitOpenError)
        assert client.stats.breaker_rejections == 1

    def test_hedge_win_counted(self):
        env = Environment()
        client = make_client(
            env,
            ResiliencePolicy(max_retries=0, hedge_delay_s=0.05),
        )
        calls = []

        def work():
            calls.append(1)
            # Primary is slow; the hedge (second call) is fast.
            yield env.timeout(5.0 if len(calls) == 1 else 0.001)

        ok, _ = run_call(env, client, work)
        assert ok
        assert client.stats.hedges == 1
        assert client.stats.hedge_wins == 1
        assert client.stats.attempts == 2

    def test_hedge_not_launched_for_fast_primary(self):
        env = Environment()
        client = make_client(
            env,
            ResiliencePolicy(hedge_delay_s=0.25),
        )

        def fast_work():
            yield env.timeout(0.001)

        ok, _ = run_call(env, client, fast_work)
        assert ok
        assert client.stats.hedges == 0

    def test_hedge_survives_one_branch_failure(self):
        env = Environment()
        client = make_client(
            env,
            ResiliencePolicy(max_retries=0, hedge_delay_s=0.05),
        )
        calls = []

        def work():
            calls.append(1)
            if len(calls) == 1:
                # Primary dies after the hedge has launched.
                yield env.timeout(0.1)
                raise ServerUnavailableError("primary died")
            yield env.timeout(0.2)

        ok, _ = run_call(env, client, work)
        assert ok
        assert client.stats.hedges == 1
        assert client.stats.hedge_wins == 1

    def test_net_loss_drops_attempts(self):
        env = Environment()
        sched = make_scheduler(env)
        injector = FaultInjector(
            env,
            (FaultSpec("net_loss", 0.0, 0.99, 0.9),),
            sched,
            random.Random(7),
            window_start=0.0,
            window_seconds=1.0,
        )
        injector.start()
        client = make_client(
            env,
            ResiliencePolicy(max_retries=0),
            injector=injector,
        )

        def work():
            yield env.timeout(0.001)

        failures = 0
        for _ in range(20):
            ok, _ = run_call(env, client, work)
            failures += 0 if ok else 1
        assert client.stats.net_drops > 0
        assert failures == client.stats.net_drops

    def test_backoff_is_deterministic(self):
        def run_once():
            env = Environment()
            client = make_client(
                env,
                ResiliencePolicy(max_retries=3),
            )

            def slow_work():
                yield env.timeout(10.0)

            run_call(env, client, slow_work)
            return env.now

        assert run_once() == run_once()

    def test_stats_reset(self):
        stats = ResilienceStats(requests=5, retries=2)
        stats.reset()
        assert stats.requests == 0
        assert stats.retries == 0

    def test_stats_as_extra_keys(self):
        extra = ResilienceStats(requests=3, successes=2).as_extra()
        assert extra["resilience_requests"] == 3.0
        assert extra["resilience_successes"] == 2.0
        assert all(k.startswith("resilience_") for k in extra)
