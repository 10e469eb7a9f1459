"""Client-side resilience primitives: the machinery that survives faults.

Production datacenter clients never issue a bare RPC: every call
carries a deadline, failed calls retry with exponential backoff and
jitter, sustained failure trips a circuit breaker, and tail-sensitive
services hedge slow requests.  :class:`ServiceClient` packages those
four primitives around any simulated piece of work (a handler
generator), tuned per scenario by :class:`ResiliencePolicy`, and
accounts for everything in :class:`ResilienceStats` — the raw material
of the ``resilience`` report hook.

Determinism: every random draw (backoff jitter, simulated packet loss)
comes from a named RNG stream, and all timing is simulation time, so a
(seed, schedule, policy) triple replays byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, Generator, Optional

from repro.faults.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultError,
    NetworkLossError,
    RetriesExhaustedError,
    ServerUnavailableError,
)
from repro.faults.injector import FaultInjector
from repro.sim.engine import Environment, Process
from repro.sim.events import any_of


#: Every attempt's deadline, in simulated seconds.
DEADLINE_S = 0.5
#: The k-th retry backs off ``backoff_base_s * BACKOFF_MULTIPLIER **
#: (k - 1)`` seconds, stretched by a uniform draw of up to JITTER_FRAC.
BACKOFF_MULTIPLIER = 2.0
JITTER_FRAC = 0.5
#: The per-request latency objective: the ``resilience`` hook reports
#: compliance against it and the SLO control plane judges goodput by it.
SLO_LATENCY_S = 0.1


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-scenario knobs of the client-side primitives.

    ``max_retries=0`` means one attempt only and ``hedge_delay_s=0``
    disables hedging; a hedge must fire before the :data:`DEADLINE_S`
    deadline every attempt carries.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.002
    breaker_failure_threshold: int = 10
    breaker_reset_s: float = 0.05
    hedge_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.backoff_base_s < 0 or self.breaker_reset_s < 0:
            raise ValueError("durations must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if not 0.0 <= self.hedge_delay_s < DEADLINE_S:
            raise ValueError(f"hedge_delay_s must be in [0, {DEADLINE_S})")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ResilienceStats:
    """Counters a :class:`ServiceClient` accumulates."""

    requests: int = 0
    successes: int = 0
    failures: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    breaker_rejections: int = 0
    net_drops: int = 0
    unavailable: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def as_extra(self) -> Dict[str, float]:
        """Flatten into ``resilience_*`` keys for ``WorkloadResult.extra``."""
        return {
            f"resilience_{name}": float(getattr(self, name))
            for name in self.__dataclass_fields__
        }


class CircuitBreaker:
    """Classic closed → open → half-open breaker on consecutive failures.

    After ``failure_threshold`` consecutive failures the breaker opens
    and rejects calls for ``reset_s`` simulated seconds; the first call
    after that window is a half-open probe — success closes the
    breaker, failure re-opens it for another window.
    """

    def __init__(self, env: Environment, failure_threshold: int, reset_s: float) -> None:
        self.env = env
        self.failure_threshold = failure_threshold
        self.reset_s = reset_s
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self.env.now - self.opened_at >= self.reset_s:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May a call proceed right now?"""
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and not self._probing:
            self._probing = True  # one probe at a time
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self._probing = False
        if self.consecutive_failures >= self.failure_threshold:
            self.opened_at = self.env.now


#: A unit of client work: a zero-argument generator factory.
Work = Callable[[], Generator]

_DEADLINE_MESSAGE = f"deadline of {DEADLINE_S}s exceeded"


class ServiceClient:
    """Deadline + retry + breaker + hedging around simulated work.

    ``call`` is a generator (use ``yield from`` inside a sim process);
    it returns normally on success and raises a
    :class:`~repro.faults.errors.FaultError` subclass on final failure,
    which load generators record as request errors.
    """

    def __init__(
        self,
        env: Environment,
        policy: ResiliencePolicy,
        rng: random.Random,
        injector: Optional[FaultInjector] = None,
        stats: Optional[ResilienceStats] = None,
    ) -> None:
        self.env = env
        self.policy = policy
        self.rng = rng
        self.injector = injector
        self.stats = stats or ResilienceStats()
        self.breaker = CircuitBreaker(
            env, policy.breaker_failure_threshold, policy.breaker_reset_s
        )

    # -- public API ------------------------------------------------------------
    def call(self, work: Work) -> Generator:
        """Run ``work`` under the full resilience pipeline (generator)."""
        policy = self.policy
        stats = self.stats
        stats.requests += 1
        attempt_index = 0
        last_error: BaseException = FaultError("no attempt made")
        while True:
            if not self.breaker.allow():
                stats.breaker_rejections += 1
                stats.failures += 1
                raise CircuitOpenError("circuit breaker is open")
            try:
                yield from self._attempt(work)
            except FaultError as exc:
                # Kept without its traceback: those frames name this one
                # and the attempt's processes, a cycle for the collector.
                last_error = exc.with_traceback(None)
                self.breaker.record_failure()
                self._classify(exc)
            else:
                self.breaker.record_success()
                stats.successes += 1
                return
            if attempt_index >= policy.max_retries:
                stats.failures += 1
                raise RetriesExhaustedError(attempt_index + 1, last_error)
            attempt_index += 1
            stats.retries += 1
            backoff = policy.backoff_base_s * (
                BACKOFF_MULTIPLIER ** (attempt_index - 1)
            )
            backoff *= 1.0 + JITTER_FRAC * self.rng.random()
            if backoff > 0:
                yield self.env.sleep(backoff)

    # -- internals -------------------------------------------------------------
    def _classify(self, exc: FaultError) -> None:
        stats = self.stats
        if isinstance(exc, DeadlineExceededError):
            stats.timeouts += 1
        elif isinstance(exc, NetworkLossError):
            stats.net_drops += 1
        elif isinstance(exc, ServerUnavailableError):
            stats.unavailable += 1

    def _attempt_once(self, work: Work) -> Generator:
        """One network round trip plus the service work itself."""
        injector = self.injector
        if injector is not None:
            delay = injector.net_delay_s
            if delay > 0:
                yield self.env.sleep(delay)
            if injector.drops_attempt():
                raise NetworkLossError("request dropped by network fault")
        yield from work()

    def _attempt(self, work: Work) -> Generator:
        """One attempt: primary, optional hedge, and the deadline.

        Raises :class:`DeadlineExceededError` on timeout and re-raises
        the primary's failure otherwise.  Losing/abandoned attempt
        processes are interrupted; work already queued on server thread
        pools keeps running to completion — exactly the wasted work a
        real server performs for an abandoned request.
        """
        env = self.env
        self.stats.attempts += 1
        primary = env.process(self._attempt_once(work))
        contenders = [primary]
        deadline = env.timeout(DEADLINE_S, "deadline")
        hedge_after = self.policy.hedge_delay_s
        try:
            if hedge_after > 0:
                races = [primary, env.timeout(hedge_after, "hedge"), deadline]
                index, _ = yield any_of(env, races)
                if index == 0:
                    return  # primary finished before the hedge fired
                if index == 2:
                    raise DeadlineExceededError(_DEADLINE_MESSAGE)
                # Hedge timer fired: launch the backup request.
                self.stats.hedges += 1
                self.stats.attempts += 1
                secondary = env.process(self._attempt_once(work))
                contenders.append(secondary)
                try:
                    index, _ = yield any_of(env, [primary, secondary, deadline])
                except FaultError:
                    # One branch died; the attempt survives as long as
                    # the other is still running (hedging tolerates a
                    # single branch failure).
                    survivor = next(
                        (p for p in (primary, secondary) if p.is_alive), None
                    )
                    if survivor is None:
                        raise
                    index, _ = yield any_of(env, [survivor, deadline])
                    if index == 1:
                        raise DeadlineExceededError(_DEADLINE_MESSAGE)
                    if survivor is secondary:
                        self.stats.hedge_wins += 1
                    return
                if index == 2:
                    raise DeadlineExceededError(_DEADLINE_MESSAGE)
                if index == 1:
                    self.stats.hedge_wins += 1
                return
            index, _ = yield any_of(env, [primary, deadline])
            if index == 1:
                raise DeadlineExceededError(_DEADLINE_MESSAGE)
        finally:
            for proc in contenders:
                self._abandon(proc)

    @staticmethod
    def _abandon(proc: Process) -> None:
        if proc.is_alive:
            proc.interrupt("abandoned")
