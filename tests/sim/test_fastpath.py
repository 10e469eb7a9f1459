"""Regression tests for the sim-engine fast path.

Pins the behaviors the allocation-free rewrite must preserve: strict
interrupt list discipline (including interrupting a process already
scheduled to resume), sentinel-free bounded runs, freelist recycling,
and cooperative ``stop()``.
"""

import pytest

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


class TestInterruptDiscipline:
    def test_interrupt_while_scheduled_to_resume(self, env):
        """Interrupting a process whose resume is already queued.

        The waiter yields an event that has *already been processed*,
        so its resumption rides a pooled queue entry rather than an
        event subscription.  The interrupt must strictly unsubscribe
        from that entry (no double resume, no swallowed ValueError) and
        deliver instead.
        """
        outcomes = []
        ev = Event(env)
        ev.succeed(42)

        def waiter():
            try:
                value = yield ev
            except Interrupt as intr:
                outcomes.append(("interrupted", intr.cause))
                return
            outcomes.append(("value", value))

        proc = env.process(waiter())

        def interrupter():
            proc.interrupt("bump")
            return
            yield  # pragma: no cover - makes this a generator

        env.process(interrupter())
        env.run()
        assert outcomes == [("interrupted", "bump")]

    def test_queued_interrupts_deliver_in_order(self, env):
        causes = []

        def stubborn():
            while True:
                try:
                    yield env.timeout(10.0)
                except Interrupt as intr:
                    causes.append(intr.cause)
                    if len(causes) >= 2:
                        return

        proc = env.process(stubborn())

        def interrupter():
            proc.interrupt("first")
            proc.interrupt("second")
            return
            yield  # pragma: no cover

        env.process(interrupter())
        env.run()
        assert causes == ["first", "second"]
        assert proc.value is None  # returned via the second interrupt

    def test_interrupt_finished_process_raises(self, env):
        def quick():
            return 7
            yield  # pragma: no cover

        proc = env.process(quick())
        env.run()
        assert proc.value == 7
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_interrupt_then_finish_drops_late_delivery(self, env):
        """A first interrupt that makes the process return quietly
        swallows a second, already-queued interrupt."""
        def once():
            try:
                yield env.timeout(5.0)
            except Interrupt:
                return "done"

        proc = env.process(once())

        def interrupter():
            proc.interrupt("a")
            proc.interrupt("b")
            return
            yield  # pragma: no cover

        env.process(interrupter())
        env.run()
        assert proc.value == "done"


class TestBoundedRun:
    def test_clock_lands_exactly_on_until(self, env):
        # Empty queue: a bounded run still advances the clock.
        env.run(until=1.5)
        assert env.now == 1.5

    def test_repeated_bounded_runs_compose(self, env):
        ticks = []

        def ticker():
            while True:
                yield env.sleep(0.4)
                ticks.append(env.now)

        env.process(ticker())
        env.run(until=1.0)
        assert env.now == 1.0
        first = len(ticks)
        env.run(until=2.0)
        assert env.now == 2.0
        assert len(ticks) > first
        # No event lost or duplicated across the boundary.
        assert ticks == sorted(ticks)
        assert len(ticks) == len(set(ticks))

    def test_timeout_at_bound_scheduled_before_run_fires(self, env):
        fired = []
        # Created before run(): its sequence number is below the bound,
        # so it fires even though it lands exactly at ``until``.
        timeout = env.timeout(1.0)

        def waiter():
            yield timeout
            fired.append(env.now)

        env.process(waiter())
        env.run(until=1.0)
        assert fired == [1.0]

    def test_event_scheduled_at_bound_during_run_defers(self, env):
        """The sentinel tie-break survives: an event landing exactly at
        the bound but scheduled *during* the run waits for the next
        run call."""
        fired = []

        def late():
            yield env.timeout(0.5)
            yield env.timeout(0.5)  # scheduled mid-run, due exactly at 1.0
            fired.append(env.now)

        env.process(late())
        env.run(until=1.0)
        assert fired == []
        env.run(until=1.0)
        assert fired == [1.0]

    def test_until_before_now_rejected(self, env):
        env.run(until=2.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)


class TestFreelists:
    def test_sleep_entries_recycle(self, env):
        markers = set()

        def sleeper():
            for _ in range(1000):
                marker = env.sleep(0.001)
                markers.add(id(marker))
                assert not isinstance(marker, Event)
                yield marker

        proc = env.process(sleeper())
        env.step()  # the bootstrap
        # 1000 sleeps allocate no event: each is one heap entry holding
        # the process itself, and every call returns the same marker.
        for _ in range(1000):
            assert not env._fifo
            ((_, seq, entry),) = env._queue
            assert entry is proc and seq == proc._wake
            env.step()
        assert not proc.is_alive and env.now == pytest.approx(1.0)
        assert not env._queue and len(env._fifo) == 1  # the exit
        assert len(markers) == 1
        assert len(env._resume_pool) == 1  # the bootstrap's resume

    def test_resume_entries_recycle(self, env):
        done = Event(env)
        done.succeed("x")

        def joiner():
            for _ in range(500):
                value = yield done  # already processed -> pooled resume
                assert value == "x"

        env.process(joiner())
        env.run()
        assert 1 <= len(env._resume_pool) <= 4

    def test_sleep_rejects_negative_delay(self, env):
        with pytest.raises(ValueError):
            env.sleep(-0.1)


class TestStop:
    def test_stop_ends_run_early_and_is_resumable(self, env):
        seen = []

        def ticker():
            while True:
                yield env.sleep(0.1)
                seen.append(env.now)
                if len(seen) == 3:
                    env.stop()

        env.process(ticker())
        env.run(until=10.0)
        assert len(seen) == 3
        assert env.now == pytest.approx(0.3)
        # The flag clears on the next run; the simulation continues.
        # The tick at exactly 0.5 is scheduled mid-run, so the bound
        # tie-break defers it: only 0.4 lands in this window.
        env.run(until=0.5)
        assert env.now == 0.5
        assert len(seen) == 4


class TestTwoQueueMerge:
    """At-``now`` entries ride a deque, future entries the heap; the run
    loop must still process everything in global ``(time, seq)`` order."""

    def test_same_timestamp_interleave_follows_seq_order(self, env):
        order = []

        def tag(label):
            return lambda event: order.append(label)

        # Alternate heap-side (zero-delay timeout) and deque-side
        # (succeed) entries at the same timestamp.
        env.timeout(0.0).callbacks.append(tag("t1"))
        Event(env).succeed().callbacks.append(tag("e1"))
        env.timeout(0.0).callbacks.append(tag("t2"))
        Event(env).succeed().callbacks.append(tag("e2"))
        env.run()
        assert order == ["t1", "e1", "t2", "e2"]

    def test_peek_and_step_see_deque_entries(self, env):
        fired = []
        env.timeout(1.0).callbacks.append(lambda e: fired.append("late"))
        assert env.peek() == 1.0
        Event(env).succeed().callbacks.append(lambda e: fired.append("now"))
        # The succeeded event is scheduled at time 0 on the deque and
        # must win over the future-dated heap entry.
        assert env.peek() == 0.0
        env.step()
        assert fired == ["now"]
        env.step()
        assert fired == ["now", "late"]

    def test_succeed_at_bound_defers_to_next_run(self, env):
        fired = []
        ev = Event(env)
        ev.callbacks.append(lambda e: fired.append(env.now))

        def succeeder():
            yield env.sleep(1.0)
            ev.succeed()

        env.process(succeeder())
        # The succeed lands at exactly the bound with a mid-run sequence
        # number, so the tie-break defers it (deque push-back path).
        env.run(until=1.0)
        assert fired == []
        env.run(until=2.0)
        assert fired == [1.0]
