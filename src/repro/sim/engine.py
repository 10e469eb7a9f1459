"""Event loop, events, and generator-based processes.

The engine is a priority-queue driven discrete-event simulator.  Time is
a float (seconds by convention).  Determinism is guaranteed: events
scheduled at the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), so repeated runs
of the same model produce identical traces.

The hot path is deliberately allocation-lean:

* :meth:`Environment.run` is a single tight loop with the queues, the
  heap primitives, and the freelists bound to locals — there is no
  per-event ``step()`` call, no sentinel event, and no exception-based
  control flow for bounded runs.
* Scheduling is split across two structures merged by global
  ``(time, seq)`` order: future-dated timeouts go through the binary
  heap, while entries scheduled at the current time (process resumes,
  completions, ``succeed``/``fail``) ride a plain deque that is sorted
  by construction — O(1) instead of O(log n) for the majority of
  steady-state traffic.
* :class:`Process` resumes its generator with a direct ``send``/
  ``throw`` dispatch; the engine never allocates a closure per step.
* Immediate resumes (:class:`_Resume`) and fire-and-forget timeouts
  (:meth:`Environment.sleep`) are recycled through per-environment
  freelists, so a steady-state request loop allocates approximately
  zero event objects per request.
* A resource grant that :meth:`run` would process next anyway (a free
  CPU core, :meth:`repro.sim.resources.Resource.claim`) is taken
  inline, with no event, queue entry or resume
  (:meth:`Environment._grant_is_next`).  That holds only while
  ``run`` is active, the at-now deque is empty, the heap head is
  strictly later than ``now``, ``stop()`` has not been called, ``now``
  is strictly before the run's ``until`` bound, and the loop is not
  fanning the current event out to several callbacks.  The inline
  grant still consumes its sequence number, so the event order, every
  later ``(time, seq)`` key and the event count are those of the queued
  grant.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class StopSimulation(Exception):
    """Halts :meth:`Environment.run` when raised inside a callback.

    Bounded runs (``run(until=...)``) no longer rely on this exception —
    they stop on a queue-bound time check — but raising it from model
    code remains a supported way to end a run immediately.  Prefer
    :meth:`Environment.stop`, which does the same without unwinding
    through generator frames.
    """


PENDING = object()


class Event:
    """A waitable occurrence inside the simulation.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    schedules it, and when the environment processes it every registered
    callback runs.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._value is not PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._fifo.append((env.now, env._seq, self))
        env._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.
        """
        if self._value is not PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._fifo.append((env.now, env._seq, self))
        env._seq += 1
        return self


class _Resume:
    """Pre-triggered lightweight queue entry.

    Stands in for the proxy :class:`Event` the engine used to allocate
    whenever a process (or combinator) subscribed to an event that had
    already been processed.  It carries the outcome through the queue —
    preserving the same-timestamp ordering guarantee — without a full
    Event, its property machinery, or a second ``succeed()`` round.

    Entries are recycled through the environment's freelist after their
    callback runs; nothing outside the engine may retain one.
    """

    __slots__ = ("callbacks", "_ok", "_value")

    def __init__(
        self, callback: Callable[["Event"], None], ok: bool, value: Any
    ) -> None:
        self.callbacks: Optional[List[Callable[["Event"], None]]] = [callback]
        self._ok = ok
        self._value = value

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        heappush(env._queue, (env.now + delay, env._seq, self))
        env._seq += 1


class _PooledTimeout(Timeout):
    """A :class:`Timeout` recycled through the environment's freelist.

    Created only by :meth:`Environment.sleep`.  After its callbacks run
    the engine reclaims the object, so callers must not retain a
    reference past the resume — which is exactly the fire-and-forget
    ``yield env.sleep(delay)`` pattern of the hot paths.
    """

    __slots__ = ()


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator; the process itself is an event that fires when
    the generator finishes (its value is the generator's return value).
    """

    __slots__ = ("_generator", "_target", "_resume_fn")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._generator = generator
        #: The event this process is currently subscribed to (its
        #: ``_resume`` sits in that event's callback list), or ``None``
        #: while the process is running or scheduled to resume.
        self._target: Optional[Event] = None
        #: ``self._resume`` bound once: every attribute access on a
        #: method allocates a fresh bound-method object, and the resume
        #: callback is subscribed/unsubscribed several times per request.
        self._resume_fn = self._resume
        # Bootstrap: resume the process at the current time.
        env._schedule_resume(self._resume_fn, True, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Works whether the process is waiting on an event or already
        scheduled to resume: the pending resumption is unsubscribed
        first (list discipline — the callback must be present, so the
        removal is strict), and the interrupt is delivered through the
        queue at the current time.  Multiple interrupts queue up and are
        all delivered in order; one landing after the process finished
        is dropped.
        """
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is not None:
                # Strict removal: under the target-tracking discipline
                # the callback is always present; a ValueError here is
                # an engine bug, not a condition to swallow.
                callbacks.remove(self._resume_fn)
            self._target = None
        self.env._schedule_resume(self._deliver_interrupt, True, cause)

    def _deliver_interrupt(self, entry: "Event") -> None:
        """Queue callback: throw Interrupt(cause) into the generator."""
        if self._value is not PENDING:
            # Finished between scheduling and delivery (e.g. a first
            # interrupt made it return): nothing to interrupt.
            return
        target = self._target
        if target is not None:
            # A prior interrupt already resumed the process and it is
            # waiting on a new target: unsubscribe so the event cannot
            # resume it a second time.
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.remove(self._resume_fn)
            self._target = None
        entry._ok = False
        entry._value = Interrupt(entry._value)
        self._resume(entry)

    def _resume(self, event: "Event") -> None:
        """Advance the generator with the event's outcome.

        Direct ``send``/``throw`` dispatch: no per-step closure, no
        intermediate ``_step`` frame.  This is the single hottest
        function in the simulator.
        """
        self._target = None
        env = self.env
        generator = self._generator
        try:
            if event._ok:
                target = generator.send(event._value)
            else:
                target = generator.throw(event._value)
        except StopIteration as stop:
            self._value = stop.value
            env._fifo.append((env.now, env._seq, self))
            env._seq += 1
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self._value = None
            env._fifo.append((env.now, env._seq, self))
            env._seq += 1
            return
        except BaseException as exc:
            if isinstance(exc, StopSimulation):
                raise
            # Any other uncaught exception fails the process event, so
            # waiters (joins, races, resilience retries) see it as a
            # failure.  If nobody waits on the process, the orphan rule
            # in the run loop re-raises it — an unhandled error still
            # stops the simulation.
            self._ok = False
            self._value = exc
            env._fifo.append((env.now, env._seq, self))
            env._seq += 1
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {target!r} "
                "(yield env.timeout(...) or another Event)"
            ) from None
        if callbacks is None:
            # The event already fired (e.g. joining on a fanout where
            # some branches finished first): resume at the current time
            # via the queue, carrying the same outcome.
            self._target = env._schedule_resume(
                self._resume_fn, target._ok, target._value
            )
            return
        self._target = target
        callbacks.append(self._resume_fn)


class Environment:
    """The simulation environment: clock plus event queue."""

    #: Freelists never grow past this many parked objects.
    _POOL_LIMIT = 512

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: it is read on every latency measurement in every
        #: workload, and the descriptor indirection was measurable.
        #: Treat it as read-only outside the engine.
        self.now = float(initial_time)
        #: Future-dated entries (timeouts) live in a binary heap; entries
        #: scheduled *at the current time* (process resumes, completions,
        #: ``succeed``/``fail``) go to a plain deque instead.  Appends at
        #: ``now`` are monotone in ``(time, seq)``, so the deque is always
        #: sorted and the run loop merges the two by global ``(time, seq)``
        #: order — identical total order to a single heap, but the
        #: majority of steady-state traffic pays O(1) instead of O(log n).
        self._queue: List[Tuple[float, int, Event]] = []
        self._fifo: "deque[Tuple[float, int, Event]]" = deque()
        self._seq = 0
        self._stopped = False
        #: The active :meth:`run`'s bound (``-inf`` outside ``run``, so
        #: :meth:`step` never grants inline) and whether its loop is
        #: fanning one event out to several callbacks.
        self._until = float("-inf")
        self._fanout = False
        self._resume_pool: List[_Resume] = []
        self._timeout_pool: List[_PooledTimeout] = []

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """A fire-and-forget timeout drawn from the freelist.

        Semantically ``timeout(delay)`` with no value, but the returned
        object is recycled as soon as its callbacks have run — callers
        must ``yield`` it immediately and never retain a reference
        (``yield env.sleep(d)``).  Steady-state loops built on ``sleep``
        allocate no event objects at all.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            entry = pool.pop()
            entry.delay = delay
        else:
            entry = _PooledTimeout.__new__(_PooledTimeout)
            entry.env = self
            entry.callbacks = []
            entry._value = None
            entry._ok = True
            entry.delay = delay
        heappush(self._queue, (self.now + delay, self._seq, entry))
        self._seq += 1
        return entry

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def _schedule_resume(
        self, callback: Callable[[Event], None], ok: bool, value: Any
    ) -> _Resume:
        """Schedule an immediate resume without allocating a full Event."""
        pool = self._resume_pool
        if pool:
            entry = pool.pop()
            entry.callbacks.append(callback)
            entry._ok = ok
            entry._value = value
        else:
            entry = _Resume(callback, ok, value)
        self._fifo.append((self.now, self._seq, entry))
        self._seq += 1
        return entry

    def _grant_is_next(self) -> bool:
        """True if an entry scheduled at ``now`` would be the very next
        one :meth:`run` processes, with nothing run in between."""
        if self._fifo or self._fanout or self._stopped:
            return False
        now = self.now
        queue = self._queue
        return now < self._until and (not queue or queue[0][0] > now)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        fifo = self._fifo
        if queue:
            if fifo and fifo[0] < queue[0]:
                return fifo[0][0]
            return queue[0][0]
        if fifo:
            return fifo[0][0]
        return float("inf")

    def stop(self) -> None:
        """End the current :meth:`run` after the in-flight event.

        The flag is observed once per processed event and cleared on
        the next ``run`` call, so a stopped environment can keep
        running later — this is how convergence-based early termination
        ends a measurement phase deterministically.
        """
        self._stopped = True

    def step(self) -> None:
        """Process the next event; raises :class:`SimulationError` if empty.

        Retained for tests and manual single-stepping; :meth:`run` uses
        an inlined loop instead of calling this per event.
        """
        queue = self._queue
        fifo = self._fifo
        if fifo and (not queue or fifo[0] < queue[0]):
            when, _, event = fifo.popleft()
        elif queue:
            when, _, event = heappop(queue)
        else:
            raise SimulationError("no scheduled events")
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if isinstance(event, _Resume):
            event._value = None
            event.callbacks = []
            if len(self._resume_pool) < self._POOL_LIMIT:
                self._resume_pool.append(event)
        elif type(event) is _PooledTimeout:
            event.callbacks = []
            if len(self._timeout_pool) < self._POOL_LIMIT:
                self._timeout_pool.append(event)
        elif not event._ok and not callbacks:
            # A failed event nobody waited on: surface the error.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        The bound is a queue-head time check, not a sentinel event:
        entries scheduled strictly before ``until`` are processed, the
        clock then advances to exactly ``until``, and no stray entry is
        left behind — repeated bounded runs compose without exception-
        based control flow.  For entries at exactly ``until`` the old
        sentinel's tie-break is preserved: only those scheduled before
        this call (sequence numbers below the bound) still fire.
        """
        if until is not None:
            bound = float(until)
            if bound < self.now:
                raise ValueError(
                    f"until ({until}) must not be before now ({self.now})"
                )
        else:
            bound = float("inf")
        bound_seq = self._seq
        self._stopped = False
        saved = self._until, self._fanout
        self._until = bound
        self._fanout = False
        queue = self._queue
        fifo = self._fifo
        popleft = fifo.popleft
        pop = heappop
        resume_pool = self._resume_pool
        timeout_pool = self._timeout_pool
        pool_limit = self._POOL_LIMIT
        try:
            while True:
                # Two-way merge: the deque holds at-``now`` entries (always
                # sorted — see ``_fifo``), the heap holds future-dated
                # ones; whichever head is globally next by ``(time, seq)``
                # is processed.  Pop first, then bound-check: the rare
                # entry past the bound goes back (once per run call).
                if fifo:
                    if queue and queue[0] < fifo[0]:
                        entry = pop(queue)
                        from_heap = True
                    else:
                        entry = popleft()
                        from_heap = False
                elif queue:
                    entry = pop(queue)
                    from_heap = True
                else:
                    break
                when = entry[0]
                if when >= bound and (when > bound or entry[1] >= bound_seq):
                    if from_heap:
                        heappush(queue, entry)
                    else:
                        fifo.appendleft(entry)
                    self.now = bound
                    return
                event = entry[2]
                self.now = when
                cls = event.__class__
                # Nearly every event has zero or one subscriber; the
                # single-callback path below skips the list-iterator
                # allocation a for-loop would make per event.
                if cls is _Resume:
                    # Pooled entries cannot gain subscribers while their
                    # callbacks run (nothing outside the engine holds
                    # one), so skip the processed-marker round-trip and
                    # recycle the entry and its list in place.
                    callbacks = event.callbacks
                    if len(callbacks) == 1:
                        callbacks[0](event)
                        callbacks.clear()
                    elif callbacks:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                        callbacks.clear()
                    event._value = None
                    if len(resume_pool) < pool_limit:
                        resume_pool.append(event)
                elif cls is _PooledTimeout:
                    callbacks = event.callbacks
                    if len(callbacks) == 1:
                        callbacks[0](event)
                        callbacks.clear()
                    elif callbacks:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                        callbacks.clear()
                    if len(timeout_pool) < pool_limit:
                        timeout_pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    elif callbacks:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                    elif not event._ok:
                        # A failed event nobody waited on: surface it.
                        raise event._value
                if self._stopped:
                    return
        except StopSimulation:
            return
        finally:
            self._until, self._fanout = saved
        # Queue drained before the bound: a bounded run still ends with
        # the clock at ``until`` (the sentinel used to guarantee this).
        if until is not None:
            self.now = bound
