"""Event combinators: join on all or any of a set of events.

Fanout-join is the defining control structure of datacenter request
processing (FeedSim waits for its slowest leaf; TAO multigets wait for
every shard).  These combinators express it directly::

    yield all_of(env, leaf_events)     # barrier on the slowest
    winner = yield any_of(env, races)  # first responder wins
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.engine import Environment, Event, Timeout


def _subscribe(env: Environment, event: Event, callback) -> None:
    """Attach a callback, handling already-processed events."""
    if event.processed:
        # Replay the outcome through the queue at the current time; the
        # engine's lightweight resume entry avoids a proxy Event.
        env._schedule_resume(callback, event.ok, event.value)
        return
    event.callbacks.append(callback)


def all_of(env: Environment, events: Sequence[Event]) -> Event:
    """An event firing once every input has fired.

    Its value is the list of input values in input order.  The first
    input to fail fails the combinator with its exception while
    something waits on it; a join its waiter abandoned (a deadline
    interrupted it) drops the failure, as ``ThreadPool`` does.
    """
    events = list(events)
    result = Event(env)
    if not events:
        result.succeed([])
        return result
    remaining = [len(events)]
    values: List[object] = [None] * len(events)

    def make_callback(index: int):
        def on_fire(event: Event) -> None:
            if result.triggered:
                return
            if not event.ok:
                if result.callbacks:
                    result.fail(event.value)
                return
            values[index] = event.value
            remaining[0] -= 1
            if remaining[0] == 0:
                result.succeed(list(values))

        return on_fire

    for index, event in enumerate(events):
        _subscribe(env, event, make_callback(index))
    return result


def any_of(env: Environment, events: Sequence[Event]) -> Event:
    """An event firing when the first input fires.

    Its value is ``(index, value)`` of the winner.  A failing first
    input fails the combinator while something waits on it; with no
    waiter left the failure is dropped, as in :func:`all_of`.

    On resolving, the combinator takes its callback back off every
    input that is a still-pending :class:`Timeout`, so a lost deadline
    or hedge timer waits out its delay in the heap without holding the
    combinator's closures and result event.  A timeout cannot fail, so
    this never hides an error from the run loop's orphan-failure rule.
    Other losing inputs, processes among them, keep their callback;
    it ignores them when they fire.
    """
    events = list(events)
    if not events:
        raise ValueError("any_of needs at least one event")
    result = Event(env)
    #: ``(timer, callback)`` for each input Timeout not yet processed.
    timers = []

    def make_callback(index: int):
        def on_fire(event: Event) -> None:
            if result.triggered:
                return
            if event.ok:
                result.succeed((index, event.value))
            elif result.callbacks:
                result.fail(event.value)
            # Drained, not walked: the list holds these very closures,
            # so emptying it also leaves no reference cycle behind.
            while timers:
                timer, callback = timers.pop()
                pending = timer.callbacks
                if pending is not None:
                    pending.remove(callback)

        return on_fire

    for index, event in enumerate(events):
        callback = make_callback(index)
        if type(event) is Timeout and event.callbacks is not None:
            timers.append((event, callback))
        _subscribe(env, event, callback)
    return result
