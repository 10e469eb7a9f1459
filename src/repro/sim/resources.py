"""Synchronisation primitives built on the event engine.

Three primitives cover every workload model in the suite:

* :class:`Store` — an unbounded (or bounded) FIFO queue of items; the
  natural model for request queues between thread pools.
* :class:`PriorityStore` — a store whose items pop lowest-key first;
  used for SLO-aware dispatch.
* :class:`Resource` — a counted resource with FIFO waiters; the natural
  model for a pool of CPU cores or worker slots.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.engine import PENDING, Environment, Event


class StorePut(Event):
    """Event representing a pending put; fires once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Event representing a pending get; fires with the item as value."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO item queue with optionally bounded capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event fires once stored."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request an item; the returned event fires with the item."""
        return StoreGet(self)

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and self._do_put(self._put_queue[0]):
                self._put_queue.popleft()
                progressed = True
            while self._get_queue and self._do_get(self._get_queue[0]):
                self._get_queue.popleft()
                progressed = True


class PriorityStore(Store):
    """A store whose :meth:`get` returns the lowest-sorting item first.

    Items must be orderable; wrap payloads as ``(priority, seq, payload)``
    tuples to avoid comparing payloads directly.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._heap: List[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _do_put(self, event: StorePut) -> bool:
        if len(self._heap) < self.capacity:
            heappush(self._heap, event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self._heap:
            event.succeed(heappop(self._heap))
            return True
        return False


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

    def claim(self) -> bool:
        """Take a free slot without a request event, if nobody waits and
        the engine would process the grant next anyway.

        The claim consumes the grant's sequence number, so a caller that
        carries on without yielding replays the queued grant event for
        event.  On False nothing was taken: use :meth:`request`.  Return
        a claimed slot with :meth:`release_claim`.
        """
        env = self.env
        if (
            self._waiters
            or self._in_use >= self.capacity
            or not env._grant_is_next()
        ):
            return False
        self._in_use += 1
        env._seq += 1
        return True

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
        """Return a slot taken by :meth:`claim` (or a granted request)."""
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


class UtilizationMeter:
    """Tracks time-weighted busy fraction of a :class:`Resource`.

    Call :meth:`mark` on every acquire/release transition (or sample
    periodically); :meth:`utilization` returns the busy-core fraction
    over the observed window.
    """

    def __init__(self, env: Environment, resource: Resource) -> None:
        self.env = env
        self.resource = resource
        self._last_time = env.now
        self._last_count = resource.count
        self._busy_core_seconds = 0.0
        self._window_start = env.now

    def mark(self) -> None:
        now = self.env.now
        self._busy_core_seconds += self._last_count * (now - self._last_time)
        self._last_time = now
        self._last_count = self.resource.count

    def reset(self) -> None:
        self.mark()
        self._busy_core_seconds = 0.0
        self._window_start = self.env.now

    def utilization(self) -> float:
        """Busy fraction in [0, 1] across all slots since the last reset."""
        self.mark()
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._busy_core_seconds / (elapsed * self.resource.capacity)
