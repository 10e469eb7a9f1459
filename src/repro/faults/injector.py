"""Seed-scheduled fault injection as first-class simulation events.

The :class:`FaultInjector` turns a fault schedule (a tuple of
:class:`~repro.faults.schedule.FaultSpec`) into ordinary engine events:
each fault becomes a process that sleeps until its onset, applies its
effect, sleeps for its duration, and reverts it.  Because the engine is
deterministic and every stochastic choice (network loss) draws from a
named RNG stream, the same seed and schedule replay byte-identically —
serial or parallel, today or next month.

Effects fall into four channels:

* **CPU channel** — ``server_slowdown``, ``freq_throttle``,
  ``mem_pressure``, and ``cache_flush`` all resolve to a multiplicative
  slowdown on the :class:`~repro.oskernel.scheduler.CpuScheduler`
  (frequency throttling additionally lowers the scheduler's clock so
  per-dispatch kernel overhead grows, exactly as it does on real
  down-clocked cores, via the ``repro.hw`` frequency parameters).
* **Availability channel** — ``server_crash`` marks the scheduler
  offline; new dispatches raise
  :class:`~repro.faults.errors.ServerUnavailableError` until restart
  (:meth:`FaultInjector.restarted` fires then).  In-flight bursts
  complete — a crash-restart drains, it does not corrupt.
* **Network channel** — ``net_latency`` and ``net_loss`` publish the
  sum of the active faults' extra delays and drop probabilities (the
  latter capped at 0.999); the
  :class:`~repro.faults.resilience.ServiceClient` consults them on
  every attempt.
* **Device channel** — ``disk_degraded`` publishes a multiplicative
  slowdown to every :class:`~repro.hw.blockdev.BlockDevice` registered
  via :meth:`FaultInjector.attach_device` (mirroring the CPU channel's
  ``fault_slowdown``).  Workloads without devices attach nothing and
  the fault is a no-op, so one scenario is meaningful suite-wide.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.faults.schedule import FaultSpec
from repro.sim.engine import Environment, Event

#: Frequency throttling never clocks below this fraction of the
#: pre-fault effective frequency (hardware has a minimum P-state).
MIN_FREQ_FRACTION = 0.25


class FaultInjector:
    """Replays a fault schedule against one simulated server.

    ``scheduler`` must expose ``fault_slowdown`` (float multiplier),
    ``offline`` (bool), and ``freq_ghz`` — the surface
    :class:`~repro.oskernel.scheduler.CpuScheduler` provides.
    ``memory_intensity`` scales ``mem_pressure``/``cache_flush``
    severity (memory-bound workloads hurt more); pass the workload's
    memory-boundness in [0, 1].
    """

    def __init__(
        self,
        env: Environment,
        schedule: Tuple[FaultSpec, ...],
        scheduler,
        rng: random.Random,
        window_start: float,
        window_seconds: float,
        memory_intensity: float = 0.5,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.env = env
        self.schedule = schedule
        self.scheduler = scheduler
        self.rng = rng
        self.window_start = window_start
        self.window_seconds = window_seconds
        self.memory_intensity = max(0.0, min(1.0, memory_intensity))
        #: Published network fault state, read by ServiceClient.
        self.net_delay_s = 0.0
        self.net_loss_p = 0.0
        #: (sim time, kind, phase) audit trail; phase is apply/revert.
        self.log: List[Tuple[float, str, str]] = []
        self._slowdowns: Dict[object, float] = {}
        self._throttles: Dict[int, float] = {}
        self._disk_faults: Dict[int, float] = {}
        self._net_delays: Dict[int, float] = {}
        self._net_losses: Dict[int, float] = {}
        self._devices: List[object] = []
        self._crashes = 0
        self._restarted: Optional[Event] = None
        self._baseline_freq_ghz: Optional[float] = None
        self._started = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Schedule every fault as a simulation process (idempotent).

        Faults start in onset order; the sort is stable, so schedule
        order breaks ties.
        """
        if self._started:
            return
        self._started = True
        by_onset = sorted(self.schedule, key=lambda fault: fault.start_frac)
        for index, fault in enumerate(by_onset):
            self.env.process(self._drive(index, fault))

    def _drive(self, index: int, fault: FaultSpec):
        start = self.window_start + fault.start_frac * self.window_seconds
        duration = fault.duration_frac * self.window_seconds
        delay = start - self.env.now
        if delay > 0:
            yield self.env.sleep(delay)
        self._apply(index, fault)
        yield self.env.sleep(duration)
        self._revert(index, fault)

    # -- effect application ----------------------------------------------------
    def _apply(self, index: int, fault: FaultSpec) -> None:
        kind = fault.kind
        if kind == "server_slowdown":
            self._set_slowdown(index, fault.magnitude)
        elif kind == "freq_throttle":
            self._apply_throttle(index, fault.magnitude)
        elif kind == "mem_pressure":
            self._set_slowdown(
                index, 1.0 + fault.magnitude * (0.5 + self.memory_intensity)
            )
        elif kind == "cache_flush":
            self._set_slowdown(
                index, 1.0 + fault.magnitude * (0.25 + 0.75 * self.memory_intensity)
            )
        elif kind == "server_crash":
            self._crashes += 1
            self.scheduler.offline = True
        elif kind == "net_latency":
            self._net_delays[index] = fault.magnitude
            self._publish_network()
        elif kind == "net_loss":
            self._net_losses[index] = fault.magnitude
            self._publish_network()
        elif kind == "disk_degraded":
            self._disk_faults[index] = fault.magnitude
            self._publish_disk_slowdown()
        self.log.append((self.env.now, kind, "apply"))

    def _revert(self, index: int, fault: FaultSpec) -> None:
        kind = fault.kind
        if kind in ("server_slowdown", "mem_pressure", "cache_flush"):
            self._clear_slowdown(index)
        elif kind == "freq_throttle":
            self._revert_throttle(index)
        elif kind == "server_crash":
            self._crashes -= 1
            if self._crashes == 0:
                self.scheduler.offline = False
                if self._restarted is not None:
                    self._restarted.succeed()
                    self._restarted = None
        elif kind in ("net_latency", "net_loss"):
            self._net_delays.pop(index, None)
            self._net_losses.pop(index, None)
            self._publish_network()
        elif kind == "disk_degraded":
            self._disk_faults.pop(index, None)
            self._publish_disk_slowdown()
        self.log.append((self.env.now, kind, "revert"))

    def restarted(self) -> Event:
        """Event that fires when the crashed server comes back online."""
        if self._restarted is None:
            self._restarted = Event(self.env)
        return self._restarted

    # -- CPU channel helpers ---------------------------------------------------
    def _set_slowdown(self, index: int, factor: float) -> None:
        self._slowdowns[index] = factor
        self._publish_slowdown()

    def _clear_slowdown(self, index: int) -> None:
        self._slowdowns.pop(index, None)
        self._publish_slowdown()

    def _publish_slowdown(self) -> None:
        product = 1.0
        for factor in self._slowdowns.values():
            product *= factor
        self.scheduler.fault_slowdown = product

    def _apply_throttle(self, index: int, magnitude: float) -> None:
        if self._baseline_freq_ghz is None:
            self._baseline_freq_ghz = self.scheduler.freq_ghz
        self._throttles[index] = magnitude
        self._publish_throttle()

    def _revert_throttle(self, index: int) -> None:
        self._throttles.pop(index, None)
        self._publish_throttle()

    def _publish_throttle(self) -> None:
        """Recompute the clock from every active throttle.

        Overlapping throttles compound multiplicatively; the clock
        floors at the minimum P-state.  Lowering the clock both grows
        per-dispatch kernel overhead (it is cycle-priced) and slows
        every burst by the frequency ratio.
        """
        baseline = self._baseline_freq_ghz
        if baseline is None:
            return
        keep = 1.0
        for magnitude in self._throttles.values():
            keep *= 1.0 - magnitude
        throttled = max(MIN_FREQ_FRACTION * baseline, baseline * keep)
        self.scheduler.freq_ghz = throttled
        if throttled < baseline:
            self._set_slowdown("freq_throttle", baseline / throttled)
        else:
            self._clear_slowdown("freq_throttle")

    # -- device channel --------------------------------------------------------
    def attach_device(self, device) -> None:
        """Register a block device for ``disk_degraded`` publication.

        ``device`` must expose ``fault_slowdown`` (the
        :class:`~repro.hw.blockdev.BlockDevice` surface).  Late
        attachment — a workload building its device after the injector
        started — immediately picks up any active disk faults.
        """
        self._devices.append(device)
        device.fault_slowdown = self._disk_product()

    def _disk_product(self) -> float:
        product = 1.0
        for factor in self._disk_faults.values():
            product *= factor
        return product

    def _publish_disk_slowdown(self) -> None:
        product = self._disk_product()
        for device in self._devices:
            device.fault_slowdown = product

    # -- network channel -------------------------------------------------------
    def _publish_network(self) -> None:
        self.net_delay_s = sum(self._net_delays.values(), 0.0)
        self.net_loss_p = min(0.999, sum(self._net_losses.values(), 0.0))

    def drops_attempt(self) -> bool:
        """Deterministically decide whether this attempt is lost."""
        return self.net_loss_p > 0.0 and self.rng.random() < self.net_loss_p

    @property
    def events_applied(self) -> int:
        """Number of apply-phase log entries so far."""
        return sum(1 for _, _, phase in self.log if phase == "apply")
