"""A sleep must replay the timeout it stands for, event for event.

``yield env.sleep(d)`` allocates no event: the sleeping process pushes
itself onto the heap, and an interrupt disowns that entry instead of
unsubscribing from a timeout.  ``yield env.timeout(d)`` is the
reference: both take one sequence number at the yield, push the same
``(time, seq)`` key and resume the process with ``None``.  Each test
runs a model both ways and requires the same per-process
``(now, tag)`` logs, clock and sequence counter after every ``run``.
"""

import random

import pytest

from repro.sim.engine import Environment, Interrupt

#: Exact binary fractions: sums of them are exact, so wakes, interrupts
#: and run bounds land on the very same instants.
DELAYS = [0.0, 0.0, 0.25, 0.25, 0.5]


def random_mix(seed, use_timeout):
    """A seeded mix of sleeping processes; returns everything observable.

    Equal and zero delays, interrupts of sleepers (some at the instant
    their wake is due, some twice at once), re-sleeping after an
    interrupt, ``stop()``, wakes exactly at a run's ``until`` and
    repeated bounded runs.
    """
    rng = random.Random(seed)
    env = Environment()
    nap = env.timeout if use_timeout else env.sleep
    logs = {}
    snapshots = []
    bell = env.event()

    def worker(name, plan):
        log = logs.setdefault(name, [])
        for kind, delay in plan:
            try:
                if kind == "sleep":
                    yield nap(delay)
                elif kind == "stop":
                    env.stop()
                    yield nap(delay)
                else:
                    yield bell
            except Interrupt as intr:
                log.append((env.now, f"interrupted:{intr.cause}"))
                continue
            log.append((env.now, kind))

    procs = []
    for i in range(rng.randint(2, 6)):
        plan = [
            (rng.choice(["sleep", "sleep", "sleep", "stop", "bell"]),
             rng.choice(DELAYS))
            for _ in range(rng.randint(2, 8))
        ]
        procs.append(env.process(worker(f"w{i}", plan)))

    def interrupter(name):
        for _ in range(rng.randint(1, 5)):
            yield nap(rng.choice(DELAYS))
            victim = rng.choice(procs)
            for _ in range(rng.choice([1, 1, 2])):
                if victim.is_alive:
                    victim.interrupt(f"{name}@{env.now}")

    def ringer():
        yield nap(rng.choice(DELAYS[2:]))
        bell.succeed()

    for i in range(rng.randint(1, 3)):
        env.process(interrupter(f"i{i}"))
    env.process(ringer())

    checkpoints = sorted(rng.choice([0.25, 0.5, 0.75, 1.0]) for _ in range(3))
    for until in checkpoints:
        while True:
            env.run(until=until)
            snapshots.append((env.now, env._seq))
            if env.now >= until:
                break
    while env.peek() != float("inf"):
        env.run()
        snapshots.append((env.now, env._seq))
    return logs, snapshots


@pytest.mark.parametrize("seed", range(60))
def test_random_mix_matches_timeouts(seed):
    assert random_mix(seed, use_timeout=False) == random_mix(
        seed, use_timeout=True
    )


def test_random_mixes_interrupt_sleepers():
    interrupted = 0
    for seed in range(60):
        logs, _ = random_mix(seed, use_timeout=False)
        interrupted += sum(
            tag.startswith("interrupted")
            for log in logs.values()
            for _, tag in log
        )
    assert interrupted > 0


def run_both(build, runs=(None,)):
    """Run one model with sleeps and with timeouts; both results."""

    def once(use_timeout):
        env = Environment()
        nap = env.timeout if use_timeout else env.sleep
        log = []
        build(env, nap, log)
        snapshots = []
        for until in runs:
            env.run(until=until)
            snapshots.append((env.now, env._seq, len(log)))
        return log, snapshots

    return once(False), once(True)


def test_interrupted_sleeper_wakes_only_at_its_new_sleep():
    # The sleeper sleeps until 1.0, is interrupted at 0.25 and sleeps
    # 2.0 more: its first heap entry, still due at 1.0, must not wake it.
    def build(env, nap, log):
        def sleeper():
            try:
                yield nap(1.0)
            except Interrupt:
                log.append((env.now, "interrupted"))
            yield nap(2.0)
            log.append((env.now, "woke"))

        proc = env.process(sleeper())

        def interrupter():
            yield nap(0.25)
            proc.interrupt()

        env.process(interrupter())

    slept, timed = run_both(build, runs=(1.0, None))
    assert slept[0] == [(0.25, "interrupted"), (2.25, "woke")]
    assert slept == timed


@pytest.mark.parametrize("interrupter_first", [True, False])
def test_interrupt_at_the_instant_the_wake_is_due(interrupter_first):
    # Both are due at 0.5; whichever took the lower number runs first.
    def build(env, nap, log):
        def sleeper():
            try:
                yield nap(0.5)
                log.append((env.now, "woke"))
            except Interrupt:
                log.append((env.now, "interrupted"))
            yield nap(0.25)
            log.append((env.now, "slept again"))

        def interrupter():
            yield nap(0.5)
            if proc.is_alive:
                proc.interrupt()
                log.append((env.now, "interrupt"))

        if interrupter_first:
            env.process(interrupter())
            proc = env.process(sleeper())
        else:
            proc = env.process(sleeper())
            env.process(interrupter())

    slept, timed = run_both(build)
    if interrupter_first:
        assert slept[0] == [
            (0.5, "interrupt"), (0.5, "interrupted"), (0.75, "slept again")
        ]
    else:
        # The wake runs first; the interrupt then lands on the second
        # sleep, whose entry is disowned in turn.
        assert slept[0] == [(0.5, "woke"), (0.5, "interrupt")]
    assert slept == timed


def test_second_queued_interrupt_disowns_the_next_sleep():
    # Two interrupts queued at once: the first lands, the process
    # sleeps again, and the second must cut that new sleep short too.
    def build(env, nap, log):
        def sleeper():
            for _ in range(3):
                try:
                    yield nap(1.0)
                    log.append((env.now, "woke"))
                except Interrupt as intr:
                    log.append((env.now, f"interrupted:{intr.cause}"))

        proc = env.process(sleeper())

        def interrupter():
            yield nap(0.25)
            proc.interrupt("a")
            proc.interrupt("b")

        env.process(interrupter())

    slept, timed = run_both(build)
    assert slept[0] == [
        (0.25, "interrupted:a"), (0.25, "interrupted:b"), (1.25, "woke")
    ]
    assert slept == timed


def test_wake_at_until_scheduled_during_the_run_waits():
    # A wake due exactly at the bound fires in this run only if its
    # number predates the run: the sleep taken at 0.5 lands on 1.0 but
    # must wait for the next ``run`` call, as a timeout would.
    def build(env, nap, log):
        def sleeper():
            yield nap(0.5)
            log.append((env.now, "half"))
            yield nap(0.5)
            log.append((env.now, "one"))

        env.process(sleeper())

    runs = (1.0, 1.0, None)
    slept, timed = run_both(build, runs)
    assert slept == timed
    assert slept[0] == [(0.5, "half"), (1.0, "one")]
    assert [logged for _, _, logged in slept[1]] == [1, 2, 2]
