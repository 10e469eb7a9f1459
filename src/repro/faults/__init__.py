"""Deterministic fault injection and client-side resilience.

``repro.faults`` models the permanent partial failure of production
datacenters — degraded cores, throttled clocks, crash-restarts, lossy
networks — as seed-scheduled simulation events, plus the client-side
primitives (deadlines, retries, circuit breakers, hedging) and the
SLO control plane (shedding, admission caps, brownout) that production
services use to survive them.  A
:class:`~repro.workloads.scenarios.FaultScenario` bundles a schedule
(a tuple of :class:`FaultSpec`) with a :class:`ResiliencePolicy` and
an optional :class:`SloControlPolicy`; it rides whole on
:class:`~repro.workloads.base.RunConfig`, so fault scenarios are part
of a run's fingerprint and replay byte-identically.
"""

from repro.faults.control import (
    AdmissionController,
    BrownoutResponder,
    LoadShedder,
    SloControlPlane,
    SloControlPolicy,
    SloControlStats,
)
from repro.faults.errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    DeadlineExceededError,
    FaultError,
    NetworkLossError,
    RequestShedError,
    RetriesExhaustedError,
    ServerUnavailableError,
)
from repro.faults.injector import FaultInjector
from repro.faults.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceStats,
    ServiceClient,
)
from repro.faults.schedule import FAULT_KINDS, FaultSpec

__all__ = [
    "AdmissionController",
    "AdmissionRejectedError",
    "BrownoutResponder",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FAULT_KINDS",
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "LoadShedder",
    "NetworkLossError",
    "RequestShedError",
    "ResiliencePolicy",
    "ResilienceStats",
    "RetriesExhaustedError",
    "ServerUnavailableError",
    "ServiceClient",
    "SloControlPlane",
    "SloControlPolicy",
    "SloControlStats",
]
