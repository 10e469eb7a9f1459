"""The inline core grant must replay the queued grant event for event.

``CpuScheduler.execute`` takes a free core without a request event when
the grant would be the next entry the run loop processes anyway
(``Environment._grant_is_next``).  The queued path is the reference:
forcing the predicate False makes every burst request a core and yield
on the grant, as before the inline grant existed.  Each test runs a
model both ways and requires the same per-process ``(now, tag)`` logs,
sequence counter, scheduler statistics and core count after every
``run`` call.
"""

import dataclasses
import random

import pytest

from repro.oskernel.kernel import KERNEL_6_9
from repro.oskernel.scheduler import CpuScheduler, SchedulerStats
from repro.sim.engine import Environment, Interrupt
from repro.sim.resources import Resource


def make_scheduler(env, cores=2, speedup=1.5):
    # With two cores and an SMT speedup, a burst resumed at one busy
    # core runs 1.5x faster than one resumed at two, so a grant taken
    # at the wrong moment shows in the logged times.
    return CpuScheduler(
        env=env, logical_cores=cores, freq_ghz=2.0, kernel=KERNEL_6_9,
        single_thread_speedup=speedup,
    )


def snapshot(env, sched):
    return (
        env.now,
        env._seq,
        dataclasses.astuple(sched.stats),
        sched.cores.count,
        sched.cores.queue_length,
    )


@pytest.fixture
def queued(monkeypatch):
    """Run a model with every burst on the queued path."""

    def run(model):
        with monkeypatch.context() as patch:
            patch.setattr(Environment, "_grant_is_next", lambda self: False)
            return model()

    return run


@pytest.fixture
def claims(monkeypatch):
    """Count core grants; ``claims()`` reads ``{"inline": n, "queued": m}``.

    Every burst either requests a core or claims one inline, so the
    inline count is the bursts started minus the ``Resource.request``
    calls: it counts cores taken, however ``execute`` decides to take
    them.
    """
    counts = {"bursts": 0, "requests": 0}
    execute = CpuScheduler.execute
    request = Resource.request

    def counting_execute(self, *args, **kwargs):
        counts["bursts"] += 1
        return execute(self, *args, **kwargs)

    def counting_request(self):
        counts["requests"] += 1
        return request(self)

    monkeypatch.setattr(CpuScheduler, "execute", counting_execute)
    monkeypatch.setattr(Resource, "request", counting_request)

    def read():
        queued = counts["requests"]
        return {"inline": counts["bursts"] - queued, "queued": queued}

    return read


def random_mix(seed):
    """A seeded mix of bursting processes; returns everything observable.

    Few cores (some bursts queue), interrupts, broadcast events whose
    waiters each burst, ``stop()`` just before a burst, bounded runs
    with a burst due exactly at the bound, and ``timeout(0)`` at now.
    """
    rng = random.Random(seed)
    env = Environment()
    sched = make_scheduler(
        env, cores=rng.randint(1, 3), speedup=rng.choice([1.0, 1.5])
    )
    logs = {}
    snapshots = []
    bells = [env.event() for _ in range(3)]
    checkpoints = sorted(
        rng.choice([0.25, 0.5, 0.75, 1.0, 1.5]) for _ in range(3)
    )
    # Timeouts created before the first run fire even when they land
    # exactly on a bound, so these processes burst at exactly ``until``.
    gates = [env.timeout(t) for t in checkpoints]

    def burst():
        return sched.execute(
            rng.choice([0.0, 0.01, 0.05, 0.2]), rng.choice([0.0, 0.01])
        )

    plans = []
    for _ in range(rng.randint(3, 7)):
        plan = []
        for _ in range(rng.randint(2, 6)):
            kind = rng.choice(
                ["burst", "burst", "sleep", "sleep0", "timeout0", "bell", "stop"]
            )
            plan.append((kind, rng.choice([0.01, 0.05, 0.1]), rng.randrange(3)))
        plans.append(plan)

    def worker(name, plan):
        log = logs.setdefault(name, [])
        for kind, delay, bell in plan:
            try:
                if kind == "burst":
                    yield from burst()
                elif kind == "sleep":
                    yield env.sleep(delay)
                elif kind == "sleep0":
                    yield env.sleep(0.0)
                elif kind == "timeout0":
                    pending = env.timeout(0)
                    yield from burst()
                    yield pending
                elif kind == "bell":
                    yield bells[bell]
                    yield from burst()
                else:
                    env.stop()
                    yield from burst()
            except Interrupt as intr:
                log.append((env.now, f"interrupted:{intr.cause}"))
                continue
            log.append((env.now, kind))

    def gated(name, gate):
        yield gate
        yield from burst()
        logs.setdefault(name, []).append((env.now, "gated"))

    def ringer():
        for bell in bells:
            yield env.sleep(rng.choice([0.0, 0.02, 0.1]))
            bell.succeed()

    procs = [env.process(worker(f"w{i}", plan)) for i, plan in enumerate(plans)]
    for i, gate in enumerate(gates):
        env.process(gated(f"g{i}", gate))
    env.process(ringer())

    def interrupter():
        for _ in range(rng.randint(0, 4)):
            yield env.sleep(rng.choice([0.0, 0.01, 0.03, 0.1]))
            victim = rng.choice(procs)
            if victim.is_alive:
                victim.interrupt(env.now)

    env.process(interrupter())
    for until in checkpoints:
        while True:
            env.run(until=until)
            snapshots.append(snapshot(env, sched))
            if env.now >= until:
                break
    while env.peek() != float("inf"):
        env.run()
        snapshots.append(snapshot(env, sched))
    return logs, snapshots


@pytest.mark.parametrize("seed", range(40))
def test_random_mix_matches_queued_path(seed, queued):
    assert random_mix(seed) == queued(lambda: random_mix(seed))


def test_random_mixes_take_both_paths(claims):
    for seed in range(40):
        random_mix(seed)
    grants = claims()
    assert grants["inline"] > 0 and grants["queued"] > 0


# One scenario per guard: each fails if that guard alone is dropped.


def run_and_log(build, runs=(None,)):
    """Build a model, then run it through the given ``until`` bounds."""
    env = Environment()
    sched = make_scheduler(env)
    log = []
    build(env, sched, log)
    snapshots = []
    for until in runs:
        env.run(until=until)
        snapshots.append(snapshot(env, sched))
    return log, snapshots


def burst_then_log(env, sched, log, name, seconds=0.3):
    yield from sched.execute(seconds)
    log.append((env.now, name))


def test_guard_at_now_deque_nonempty(queued, claims):
    # ``a`` bursts while ``b``'s start still waits in the at-now deque.
    def build(env, sched, log):
        env.process(burst_then_log(env, sched, log, "a"))
        env.process(burst_then_log(env, sched, log, "b"))

    assert run_and_log(build) == queued(lambda: run_and_log(build))
    assert claims()["inline"] == 0


def test_guard_heap_head_due_now(queued, claims):
    # ``b``'s timeout(0) sits in the heap at now when ``a`` bursts.
    def build(env, sched, log):
        def b():
            yield env.timeout(0)
            yield from burst_then_log(env, sched, log, "b")

        env.process(b())
        env.process(burst_then_log(env, sched, log, "a"))

    assert run_and_log(build) == queued(lambda: run_and_log(build))
    assert claims()["inline"] == 0


def test_guard_stop_called(queued, claims):
    def build(env, sched, log):
        def stopper():
            env.stop()
            yield from burst_then_log(env, sched, log, "a")

        env.process(stopper())

    runs = (None, None)
    assert run_and_log(build, runs) == queued(lambda: run_and_log(build, runs))
    assert claims()["inline"] == 0


def test_guard_burst_at_until(queued, claims):
    # The gate was scheduled before the run, so it fires at exactly the
    # bound; the grant it leads to is due at the bound but was scheduled
    # during the run, so it must wait for the next run call.
    def build(env, sched, log):
        gate = env.timeout(1.0)

        def gated():
            yield gate
            yield from burst_then_log(env, sched, log, "a")

        env.process(gated())

    runs = (1.0, None)
    assert run_and_log(build, runs) == queued(lambda: run_and_log(build, runs))
    assert claims()["inline"] == 0


def test_guard_fanout(queued, claims):
    # One event, two waiters that each burst when it fires.
    def build(env, sched, log):
        bell = env.timeout(0.1)

        def waiter(name):
            yield bell
            yield from burst_then_log(env, sched, log, name)

        env.process(waiter("a"))
        env.process(waiter("b"))

    assert run_and_log(build) == queued(lambda: run_and_log(build))
    assert claims()["inline"] == 0


def test_guard_busy_core(queued, claims):
    # ``a`` holds the only core when ``b`` and then ``c`` burst with
    # nothing else due at now: the engine would grant next, but the
    # core is busy, so both wait, in arrival order.
    def build(env, sched, log):
        env.process(burst_then_log(env, sched, log, "a", seconds=1.0))

        def late(name, delay):
            yield env.sleep(delay)
            yield from burst_then_log(env, sched, log, name)

        env.process(late("b", 0.1))
        env.process(late("c", 0.2))

    def build_one_core():
        env = Environment()
        sched = make_scheduler(env, cores=1)
        log = []
        build(env, sched, log)
        env.run()
        return log, snapshot(env, sched)

    log, final = build_one_core()
    assert [name for _, name in log] == ["a", "b", "c"]
    assert (log, final) == queued(build_one_core)
    assert claims()["inline"] == 0


def test_free_core_is_claimed_inline(claims):
    env = Environment()
    sched = make_scheduler(env)
    log = []
    env.process(burst_then_log(env, sched, log, "a"))
    env.run()
    assert claims() == {"inline": 1, "queued": 0}
    # Bootstrap, the consumed grant number, the sleep, the exit.
    assert env._seq == 4
    assert sched.cores.count == 0


def test_step_never_grants_inline():
    env = Environment()
    sched = make_scheduler(env)
    log = []
    env.process(burst_then_log(env, sched, log, "a"))
    env.step()  # the bootstrap: the burst requests a core
    assert not env._grant_is_next()
    # The grant waits in the at-now deque, the burst has not slept yet.
    assert len(env._fifo) == 1 and not env._queue
    assert sched.cores.count == 1
    while env.peek() != float("inf"):
        env.step()
    assert log == [(env.now, "a")] and sched.cores.count == 0


class TestNanBurst:
    @pytest.mark.parametrize(
        "user,kernel", [(float("nan"), 0.0), (0.1, float("nan"))]
    )
    def test_nan_burst_raises_and_claims_nothing(self, user, kernel):
        env = Environment()
        sched = make_scheduler(env)
        caught = []

        def proc():
            try:
                yield from sched.execute(user, kernel)
            except ValueError as exc:
                caught.append(exc)

        env.process(proc())
        env.run()
        assert len(caught) == 1
        assert sched.cores.count == 0
        assert sched.stats == SchedulerStats()
        assert env.now == 0.0
