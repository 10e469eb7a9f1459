"""Deterministic fault schedules.

A fault schedule is a tuple of :class:`FaultSpec` entries describing
*when* (as fractions of the measurement window, so one schedule is
meaningful for any ``measure_seconds``) and *what* goes wrong on the
simulated machine.  Schedules travel inside a
:class:`~repro.workloads.scenarios.FaultScenario`, are digested into
the run fingerprint, and are replayed by the
:class:`~repro.faults.injector.FaultInjector` as ordinary simulation
events — so the same seed and schedule produce byte-identical reports,
serial or parallel.

Magnitude semantics per kind:

========================  ====================================================
``server_slowdown``       multiplier (> 1.0) applied to every CPU burst
``server_crash``          magnitude ignored; the server refuses work
``freq_throttle``         fraction of effective frequency lost, in (0, 1)
``mem_pressure``          added slowdown fraction, scaled by memory intensity
``cache_flush``           added slowdown fraction while caches re-warm
``net_latency``           seconds of extra latency added to each client call
``net_loss``              probability each client attempt is dropped, [0, 1]
``disk_degraded``         multiplier (> 1.0) on block-device service times
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "server_slowdown",
    "server_crash",
    "freq_throttle",
    "mem_pressure",
    "cache_flush",
    "net_latency",
    "net_loss",
    "disk_degraded",
)

#: Kinds whose magnitude is a probability/fraction bounded by 1.
_FRACTION_KINDS = ("freq_throttle", "net_loss")


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One fault: what happens, when, for how long, how hard.

    ``start_frac`` and ``duration_frac`` are fractions of the
    measurement window; the injector converts them to absolute sim
    times once it knows the window.
    """

    kind: str
    start_frac: float
    duration_frac: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {known}")
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError(f"start_frac must be in [0, 1), got {self.start_frac}")
        if self.duration_frac <= 0.0 or self.start_frac + self.duration_frac > 1.0:
            raise ValueError(
                "duration_frac must be positive and the fault must end "
                f"within the window (start={self.start_frac}, "
                f"duration={self.duration_frac})"
            )
        if self.magnitude <= 0.0:
            raise ValueError(f"magnitude must be positive, got {self.magnitude}")
        if (
            self.kind in ("server_slowdown", "disk_degraded")
            and self.magnitude <= 1.0
        ):
            raise ValueError(f"{self.kind} magnitude is a multiplier > 1.0")
        if self.kind in _FRACTION_KINDS and self.magnitude >= 1.0:
            raise ValueError(f"{self.kind} magnitude must be a fraction < 1.0")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
