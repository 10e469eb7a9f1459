"""The counted resource, the one synchronisation primitive on the engine.

:class:`Resource` is a counted resource with FIFO waiters: the model
of a pool of CPU cores, worker slots, I/O streams or device queue
slots.  The other structures workload models need live next to their
users: request queues between thread pools are
:class:`~repro.workloads.runner.ThreadPool` docks, and busy time is
:class:`~repro.oskernel.scheduler.SchedulerStats`.

A slot is taken with :meth:`Resource.request`, except on the hottest
path: :meth:`~repro.oskernel.scheduler.CpuScheduler.execute` claims a
free core itself, with no request event, when the engine would process
the grant next anyway, and hands it back with
:meth:`Resource.release_claim`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import PENDING, Environment, Event


class ResourceRequest(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        env = resource.env
        self.env = env
        self.callbacks = []
        self._ok = True
        self.resource = resource
        if resource._waiters or resource._in_use >= resource.capacity:
            self._value = PENDING
            resource._waiters.append(self)
            resource._trigger()
            return
        # A free slot and nobody queued ahead: grant at once, with the
        # very queue entry ``succeed`` appends on the queued path.
        resource._in_use += 1
        self._value = None
        env._fifo.append((env.now, env._seq, self))
        env._seq += 1

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource (e.g. a pool of CPU cores) with FIFO waiters."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of unserved requests."""
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        """Claim a slot; the returned event fires once granted."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        """Return a previously granted slot."""
        if request.resource is not self:
            raise ValueError("request does not belong to this resource")
        if not request.triggered:
            # Cancel a never-granted request.
            try:
                self._waiters.remove(request)
            except ValueError:
                pass
            return
        self.release_claim()

    def release_claim(self) -> None:
        """Return a held slot: a granted request's, or one its holder
        claimed inline by taking ``_in_use`` itself, as
        :meth:`repro.oskernel.scheduler.CpuScheduler.execute` does."""
        self._in_use -= 1
        if self._in_use < 0:
            raise RuntimeError("resource released more times than acquired")
        if self._waiters:
            self._trigger()

    def _trigger(self) -> None:
        while self._waiters and self._in_use < self.capacity:
            waiter = self._waiters.popleft()
            self._in_use += 1
            waiter.succeed()
