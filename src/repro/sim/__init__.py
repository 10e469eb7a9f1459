"""Discrete-event simulation substrate.

This package provides the event-driven kernel on which every DCPerf
workload model runs: a deterministic event loop (:class:`Environment`),
generator-based processes (:class:`Process`), waitable events
(:class:`Event`, :class:`Timeout`), their combinators (:func:`all_of`,
:func:`any_of`), a counted resource (:class:`Resource`), and named
random streams (:class:`RngStreams`).

The design intentionally mirrors the small core of SimPy so that
workload models read like ordinary coroutine code::

    def client(env, cores):
        with cores.request() as slot:
            yield slot
            yield env.timeout(1.0)

    env = Environment()
    cores = Resource(env, capacity=2)
    env.process(client(env, cores))
    env.run(until=10.0)
"""

from repro.sim.engine import Environment, Event, Interrupt, Process, Timeout
from repro.sim.events import all_of, any_of
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "all_of",
    "any_of",
    "Resource",
    "RngStreams",
]
