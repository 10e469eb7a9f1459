"""Tests for the all_of / any_of combinators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment, Interrupt
from repro.sim.events import all_of, any_of


def _abandon_then_fail(env, combinator, waiters=1):
    """A deadline interrupts the first of ``waiters`` processes waiting
    on one combinator at t=0.5; an input process raises at t=2.0.
    Returns what each waiter saw."""

    def doomed():
        yield env.timeout(2.0)
        raise RuntimeError("late input")

    joined = combinator(env, [env.process(doomed()), env.timeout(5.0)])
    log = []

    def waiter(name):
        try:
            yield joined
        except Interrupt:
            log.append((name, "interrupted", env.now))
        except RuntimeError as exc:
            log.append((name, str(exc), env.now))

    procs = [env.process(waiter(name)) for name in "ab"[:waiters]]

    def deadline():
        yield env.timeout(0.5)
        procs[0].interrupt()

    env.process(deadline())
    env.run()
    return log


class TestAllOf:
    def test_waits_for_slowest(self, env):
        events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        fired = []

        def proc():
            values = yield all_of(env, events)
            fired.append((env.now, values))

        env.process(proc())
        env.run()
        assert fired == [(3.0, [3.0, 1.0, 2.0])]

    def test_empty_fires_immediately(self, env):
        result = all_of(env, [])
        assert result.triggered
        assert result.value == []

    def test_already_finished_inputs(self, env):
        first = env.timeout(1.0, value="a")
        env.run()  # first is processed
        second = env.timeout(1.0, value="b")
        caught = []

        def proc():
            values = yield all_of(env, [first, second])
            caught.append(values)

        env.process(proc())
        env.run()
        assert caught == [["a", "b"]]

    def test_failure_propagates(self, env):
        good = env.timeout(1.0)
        bad = env.event()
        caught = []

        def proc():
            try:
                yield all_of(env, [good, bad])
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(proc())
        bad.fail(RuntimeError("leaf died"))
        env.run()
        assert caught == [(0.0, "leaf died")]

    def test_abandoned_join_drops_a_later_failure(self, env):
        """Nobody waits on the join any more when its input fails, so
        the failure goes nowhere and the run completes, instead of the
        run loop raising it as an orphan."""
        log = _abandon_then_fail(env, all_of)
        assert log == [("a", "interrupted", 0.5)]
        assert env.now == 5.0

    def test_remaining_waiter_still_gets_the_failure(self, env):
        log = _abandon_then_fail(env, all_of, waiters=2)
        assert log == [("a", "interrupted", 0.5), ("b", "late input", 2.0)]

    @given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_fires_at_max_delay(self, delays):
        env = Environment()
        events = [env.timeout(d, value=d) for d in delays]
        joined = all_of(env, events)
        env.run()
        assert joined.value == delays
        assert env.now == pytest.approx(max(delays))


class TestAnyOf:
    def test_first_wins(self, env):
        events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        fired = []

        def proc():
            winner = yield any_of(env, events)
            fired.append((env.now, winner))

        env.process(proc())
        env.run()
        assert fired == [(1.0, (1, 1.0))]

    def test_empty_rejected(self, env):
        with pytest.raises(ValueError):
            any_of(env, [])

    def test_already_finished_input_wins_instantly(self, env):
        done = env.timeout(0.5, value="fast")
        env.run()
        slow = env.timeout(10.0)
        fired = []

        def proc():
            winner = yield any_of(env, [slow, done])
            fired.append(winner)

        env.process(proc())
        env.run(until=1.0)
        assert fired == [(1, "fast")]

    def test_failure_wins_as_exception(self, env):
        bad = env.event()
        caught = []

        def proc():
            try:
                yield any_of(env, [env.timeout(5.0), bad])
            except RuntimeError:
                caught.append(env.now)

        env.process(proc())
        bad.fail(RuntimeError("boom"))
        env.run()
        assert caught == [0.0]

    def test_resolving_releases_pending_timer(self, env):
        def quick():
            yield env.timeout(0.5)
            return "fast"

        timer = env.timeout(1.0, value="deadline")
        race = any_of(env, [env.process(quick()), timer])
        env.run(until=0.75)
        assert race.value == (0, "fast")
        assert timer.callbacks == []
        env.run()
        assert timer.processed

    def test_failure_resolution_releases_pending_timer(self, env):
        bad = env.event()
        timer = env.timeout(1.0)
        race = any_of(env, [bad, timer])
        bad.fail(RuntimeError("boom"))
        race.callbacks.append(lambda event: None)  # a waiter takes the failure
        env.run(until=0.5)
        assert not race.ok and str(race.value) == "boom"
        assert timer.callbacks == []

    def test_timer_wins_race(self, env):
        log = []

        def slow():
            yield env.timeout(2.0)
            log.append(("slow", env.now))

        def racer():
            deadline = env.timeout(1.0, "deadline")
            winner = yield any_of(env, [env.process(slow()), deadline])
            log.append((winner, env.now))

        env.process(racer())
        env.run()
        assert log == [((1, "deadline"), 1.0), ("slow", 2.0)]

    def test_losing_process_keeps_its_callback(self, env):
        """A losing process that fails later has a waiter, so the run
        loop's orphan-failure rule does not raise."""

        def doomed():
            yield env.timeout(2.0)
            raise RuntimeError("late failure")

        proc = env.process(doomed())
        race = any_of(env, [proc, env.timeout(1.0, "deadline")])
        env.run()
        assert race.value == (1, "deadline")
        assert not proc.ok and env.now == 2.0

    def test_abandoned_race_drops_a_later_failure(self, env):
        log = _abandon_then_fail(env, any_of)
        assert log == [("a", "interrupted", 0.5)]
        assert env.now == 5.0

    def test_remaining_waiter_still_gets_the_failure(self, env):
        log = _abandon_then_fail(env, any_of, waiters=2)
        assert log == [("a", "interrupted", 0.5), ("b", "late input", 2.0)]

    def test_timer_raced_in_turn_keeps_later_callback(self, env):
        """The hedge path: a deadline raced by one ``any_of`` and then,
        after that one resolved, by another that the deadline wins."""
        log = []

        def work(delay):
            yield env.timeout(delay)
            return delay

        def attempt():
            deadline = env.timeout(1.0, "deadline")
            first = yield any_of(env, [env.process(work(0.25)), deadline])
            log.append((first, len(deadline.callbacks)))
            second = any_of(env, [env.process(work(5.0)), deadline])
            assert len(deadline.callbacks) == 1
            log.append(((yield second), env.now))

        env.process(attempt())
        env.run()
        assert log == [((0, 0.25), 0), ((1, "deadline"), 1.0)]

    def test_timer_shared_by_two_pending_races(self, env):
        timer = env.timeout(1.0, "deadline")
        fast = env.timeout(0.5, "fast")
        first = any_of(env, [fast, timer])
        second = any_of(env, [env.timeout(3.0), timer])
        env.run(until=0.75)
        assert first.value == (0, "fast")
        assert len(timer.callbacks) == 1
        env.run()
        assert second.value == (1, "deadline")

    @given(delays=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_fires_at_min_delay(self, delays):
        env = Environment()
        events = [env.timeout(d, value=d) for d in delays]
        race = any_of(env, events)
        env.run()
        index, value = race.value
        assert value == pytest.approx(min(delays))
        assert delays[index] == value
