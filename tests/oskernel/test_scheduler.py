"""Tests for the discrete-event CPU scheduler."""

import dataclasses

import pytest

from repro.oskernel.kernel import KERNEL_6_4, KERNEL_6_9
from repro.oskernel.scheduler import CpuScheduler
from repro.sim.engine import Environment


def make_scheduler(env, cores=4, speedup=1.0, kernel=KERNEL_6_9):
    return CpuScheduler(
        env=env, logical_cores=cores, freq_ghz=2.0, kernel=kernel,
        single_thread_speedup=speedup,
    )


class TestExecute:
    def test_burst_accounting(self, env):
        sched = make_scheduler(env)

        def proc():
            yield from sched.execute(1.0, 0.25)

        env.process(proc())
        env.run()
        assert sched.stats.dispatch_count == 1
        assert sched.stats.kernel_seconds == pytest.approx(0.25)
        assert sched.stats.busy_seconds > 1.25  # includes overhead

    def test_dispatch_overhead_charged(self, env):
        sched = make_scheduler(env)
        overhead = sched.dispatch_overhead_seconds
        assert overhead > 0

        def proc():
            yield from sched.execute(0.0, 0.0, dispatches=10)

        env.process(proc())
        env.run()
        assert sched.stats.overhead_seconds == pytest.approx(overhead * 10)
        assert sched.stats.dispatch_count == 10

    def test_cores_limit_parallelism(self, env):
        sched = make_scheduler(env, cores=2)
        finished = []

        def proc(i):
            yield from sched.execute(1.0)
            finished.append((i, env.now))

        for i in range(4):
            env.process(proc(i))
        env.run()
        # Two waves of two: second wave ends about twice as late.
        assert finished[1][1] < finished[2][1]

    def test_validation(self, env):
        sched = make_scheduler(env)
        with pytest.raises(ValueError):
            list(sched.execute(-1.0))
        with pytest.raises(ValueError):
            list(sched.execute(1.0, dispatches=0))


class TestGrantedButNotResumed:
    """A free core is granted the instant it is requested; the burst
    only resumes once that grant's queue entry is processed."""

    def test_interrupt_before_resume_hands_core_back(self, env):
        sched = make_scheduler(env, cores=1)
        stats_before = dataclasses.replace(sched.stats)
        seen = {}

        def burst():
            yield from sched.execute(1.0)

        victim = env.process(burst())

        def interrupter():
            # Same instant: the victim holds the granted core but has
            # not resumed from its request yet.
            seen["held"] = sched.cores.count
            seen["queued"] = sched.cores.queue_length
            victim.interrupt("abandoned")
            yield env.sleep(0.0)

        env.process(interrupter())
        env.run()
        assert seen == {"held": 1, "queued": 0}
        assert not victim.is_alive
        assert sched.cores.count == 0
        assert sched.stats == stats_before
        assert env.now == 0.0


class TestSmtInterference:
    def test_light_occupancy_runs_faster(self, env):
        sched = make_scheduler(env, cores=4, speedup=1.5)
        times = []

        def lone():
            start = env.now
            yield from sched.execute(1.5)
            times.append(env.now - start)

        env.process(lone())
        env.run()
        # Only 1 of 4 cores busy -> full speedup.
        assert times[0] == pytest.approx(1.5 / 1.5, rel=0.05)

    def test_full_occupancy_runs_at_calibrated_speed(self, env):
        sched = make_scheduler(env, cores=2, speedup=1.5)
        times = []

        def worker():
            start = env.now
            yield from sched.execute(1.0)
            times.append(env.now - start)

        # Saturate: 4 jobs on 2 cores.
        for _ in range(4):
            env.process(worker())
        env.run()
        # The last dispatched jobs run at occupancy 1.0 -> speedup 1.0.
        assert max(times) >= 0.99

    def test_speedup_validation(self, env):
        with pytest.raises(ValueError):
            make_scheduler(env, speedup=0.8)


class TestKernelSensitivity:
    def test_64_overhead_exceeds_69_on_many_cores(self, env):
        s64 = CpuScheduler(env, logical_cores=384, freq_ghz=2.3, kernel=KERNEL_6_4)
        s69 = CpuScheduler(env, logical_cores=384, freq_ghz=2.3, kernel=KERNEL_6_9)
        assert s64.dispatch_overhead_seconds > 3 * s69.dispatch_overhead_seconds


class TestStats:
    def test_util_windows(self, env):
        sched = make_scheduler(env, cores=2)

        def proc():
            yield from sched.execute(2.0)

        env.process(proc())
        env.run()
        util = sched.stats.cpu_util(env.now, 2)
        assert 0.4 < util <= 1.0
        sched.stats.reset(env.now)
        assert sched.stats.cpu_util(env.now + 1.0, 2) == 0.0


class TestOverheadCache:
    def test_freq_change_invalidates_cache(self, env):
        """The fault injector mutates ``freq_ghz`` at runtime (throttle
        faults); the cached overhead must follow it exactly."""
        sched = make_scheduler(env)
        base = sched.dispatch_overhead_seconds
        sched.freq_ghz = 1.0  # throttled
        throttled = sched.dispatch_overhead_seconds
        assert throttled > base
        expected = (
            sched.kernel.context_switch_us * 1e-6
            + sched.kernel.loadavg_cost_cycles(sched.logical_cores) / 1e9
        )
        assert throttled == expected
        sched.freq_ghz = 2.0  # restored
        assert sched.dispatch_overhead_seconds == base

    def test_cached_value_matches_direct_formula(self, env):
        for kernel in (KERNEL_6_4, KERNEL_6_9):
            sched = make_scheduler(env, cores=176, kernel=kernel)
            expected = kernel.context_switch_us * 1e-6 + kernel.loadavg_cost_cycles(
                176
            ) / (sched.freq_ghz * 1e9)
            assert sched.dispatch_overhead_seconds == expected

    def test_speedup_table_matches_formula(self, env):
        sched = make_scheduler(env, cores=8, speedup=1.5)
        for count in range(9):
            occupancy = count / 8
            if occupancy <= 0.5:
                expected = 1.5
            else:
                expected = 1.5 - ((occupancy - 0.5) / 0.5) * 0.5
            assert sched._speedup_by_count[count] == expected

    def test_speedup_table_flat_without_smt(self, env):
        sched = make_scheduler(env, cores=4, speedup=1.0)
        assert sched._speedup_by_count == [1.0] * 5
