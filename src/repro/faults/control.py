"""SLO-triggered control behaviors: shed, admit, brown out.

Production fleets survive overload by *not doing* some of the work:
load shedders drop requests at admission before they queue, admission
controllers cap in-flight work per instance, and brownout responders
serve degraded (cheaper) responses while the SLO is breached.  This
module models those three behaviors as deterministic controllers driven
by the :class:`~repro.loadgen.windows.WindowedSloTracker`'s
completion-counted window signals:

* :class:`LoadShedder` — CoDel-style target/interval control of a drop
  probability: when the windowed p95 stays above the
  target latency (or the window is error-saturated) for
  ``shed_interval_windows`` consecutive windows, the drop probability
  steps up; each healthy window decays it.  Per-request admission draws
  from the run's seeded RNG stream, so shed decisions replay
  byte-identically.
* :class:`AdmissionController` — per-instance in-flight caps mirroring
  :class:`~repro.workloads.runner.InstanceSet`'s round-robin
  assignment: a request routed to a full instance is refused
  immediately instead of queueing behind work it would only slow down.
* :class:`BrownoutResponder` — publishes service-demand relief
  (degraded serving / replica scale-out) to attached targets the same
  way ``disk_degraded`` publishes device slowdowns: multiplicatively,
  with late-attach pickup.  Targets expose a ``relief_speedup``
  attribute (the :class:`~repro.oskernel.scheduler.CpuScheduler`
  surface); relief > 1.0 shrinks every burst.

:class:`SloControlPlane` bundles the tracker and the three controllers
behind one completion hook, which the
:class:`~repro.workloads.runner.BenchmarkHarness` installs when the
run's fault scenario carries a :class:`SloControlPolicy`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional

from repro.faults.errors import AdmissionRejectedError, RequestShedError
from repro.faults.resilience import SLO_LATENCY_S
from repro.loadgen.windows import WindowedSloTracker, WindowSnapshot


#: Completions per control window: decisions close on completion
#: counts, never wall time, so they are deterministic.
WINDOW_COMPLETIONS = 100
#: Ceiling on the shedder's drop probability.
SHED_MAX_FRACTION = 0.95
#: Service-demand reduction per brownout relief step (each step makes
#: requests 25% cheaper: degraded serving / replica scale-out).
BROWNOUT_RELIEF = 0.25
#: Consecutive breached windows before relief steps up, and healthy
#: windows before it steps back down.
BROWNOUT_WINDOWS = 2
#: Maximum relief steps (caps the degradation depth).
BROWNOUT_MAX_STEPS = 2


@dataclass(frozen=True)
class SloControlPolicy:
    """Per-scenario knobs of the in-run SLO control plane.

    The load shedder always runs; the admission cap runs when
    ``admit_max_inflight_per_instance > 0`` and brownout relief when
    ``brownout_enabled``.  Windows close every
    :data:`WINDOW_COMPLETIONS` completions, and goodput is judged
    against :data:`~repro.faults.resilience.SLO_LATENCY_S`.
    """

    # -- load shedder (CoDel-style target/interval) -----------------------
    #: Target latency for the windowed p95 (the CoDel "target").
    shed_target_latency_s: float = 0.1
    #: Consecutive breached windows before the drop probability steps
    #: up (the CoDel "interval", counted in windows).
    shed_interval_windows: int = 2
    #: Drop-probability increment per breach interval.
    shed_step: float = 0.05
    #: Multiplicative decay applied by each healthy window.
    shed_decay: float = 0.5
    #: A window whose error rate exceeds this is a breach even when its
    #: latency percentiles look fine (deadline-dominated overload turns
    #: queueing into timeouts, not into recorded latency).
    shed_error_rate_threshold: float = 0.25
    # -- admission control ------------------------------------------------
    #: In-flight requests one instance may hold; 0 disables the cap.
    admit_max_inflight_per_instance: int = 0
    # -- brownout responder -----------------------------------------------
    brownout_enabled: bool = False

    def __post_init__(self) -> None:
        if self.shed_target_latency_s <= 0:
            raise ValueError("shed_target_latency_s must be positive")
        if self.shed_interval_windows < 1:
            raise ValueError("shed_interval_windows must be >= 1")
        if not 0.0 < self.shed_step <= 1.0:
            raise ValueError("shed_step must be in (0, 1]")
        if not 0.0 <= self.shed_decay < 1.0:
            raise ValueError("shed_decay must be in [0, 1)")
        if not 0.0 <= self.shed_error_rate_threshold <= 1.0:
            raise ValueError("shed_error_rate_threshold must be in [0, 1]")
        if self.admit_max_inflight_per_instance < 0:
            raise ValueError("admit_max_inflight_per_instance must be >= 0")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SloControlStats:
    """Counters the control plane accumulates over a measurement window."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    admission_rejections: int = 0
    breached_windows: int = 0
    healthy_windows: int = 0
    shed_steps: int = 0
    shed_recoveries: int = 0
    brownout_activations: int = 0
    brownout_recoveries: int = 0
    max_drop_probability: float = 0.0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, type(getattr(self, name))(0))

    def as_extra(self) -> Dict[str, float]:
        """Flatten into ``slo_*`` keys for ``WorkloadResult.extra``."""
        return {
            f"slo_{name}": float(getattr(self, name))
            for name in self.__dataclass_fields__
        }


def _breached(
    window: WindowSnapshot, policy: SloControlPolicy, target_s: float
) -> bool:
    """The controllers' breach rule: the window's error rate exceeds the
    policy's threshold, or its p95 exceeds ``target_s``."""
    if window.error_rate > policy.shed_error_rate_threshold:
        return True
    if window.completions == 0:
        return False
    return window.p95 > target_s


class LoadShedder:
    """Deterministic probabilistic admission under a latency target.

    The drop probability is a pure function of the window-breach
    history (itself completion-counted), and per-request coin flips
    come from a named seeded stream — and are only drawn while the
    probability is non-zero, so a run that never sheds consumes no
    entropy from the stream.
    """

    __slots__ = ("policy", "rng", "stats", "drop_probability", "_breach_streak")

    #: Drop probabilities below this decay to exactly zero (recovered).
    FLOOR = 0.005

    def __init__(
        self,
        policy: SloControlPolicy,
        rng: random.Random,
        stats: SloControlStats,
    ) -> None:
        self.policy = policy
        self.rng = rng
        self.stats = stats
        self.drop_probability = 0.0
        self._breach_streak = 0

    def admits(self) -> bool:
        """Per-request admission decision (False = shed this request)."""
        p = self.drop_probability
        if p <= 0.0:
            return True
        return self.rng.random() >= p

    def on_window(self, window: WindowSnapshot) -> None:
        policy = self.policy
        stats = self.stats
        if _breached(window, policy, policy.shed_target_latency_s):
            stats.breached_windows += 1
            self._breach_streak += 1
            if self._breach_streak >= policy.shed_interval_windows:
                self._breach_streak = 0
                self.drop_probability = min(
                    SHED_MAX_FRACTION,
                    self.drop_probability + policy.shed_step,
                )
                stats.shed_steps += 1
                if self.drop_probability > stats.max_drop_probability:
                    stats.max_drop_probability = self.drop_probability
        else:
            stats.healthy_windows += 1
            self._breach_streak = 0
            if self.drop_probability > 0.0:
                self.drop_probability *= policy.shed_decay
                if self.drop_probability < self.FLOOR:
                    self.drop_probability = 0.0
                    stats.shed_recoveries += 1


class AdmissionController:
    """Round-robin per-instance in-flight caps.

    Mirrors :class:`~repro.workloads.runner.InstanceSet`'s round-robin
    request placement: each arriving request is routed to the next
    instance, and refused outright when that instance already holds
    ``max_inflight`` requests.  Workloads that build an ``InstanceSet``
    register its instance count through the harness; single-instance
    workloads cap the whole server.  ``max_inflight == 0`` disables
    the cap (every acquire succeeds).
    """

    __slots__ = ("max_inflight", "stats", "_inflight", "_next")

    def __init__(self, max_inflight: int, stats: SloControlStats) -> None:
        self.max_inflight = max_inflight
        self.stats = stats
        self._inflight: List[int] = [0]
        self._next = 0

    @property
    def num_instances(self) -> int:
        return len(self._inflight)

    def set_instances(self, count: int) -> None:
        """Resize to an InstanceSet's instance count (drops counters).

        Called at workload setup before any request is admitted, so
        dropping the (all-zero) counters is safe.
        """
        if count < 1:
            raise ValueError("instance count must be >= 1")
        self._inflight = [0] * count
        self._next = 0

    def try_acquire(self) -> Optional[int]:
        """Admit to the next instance, or None when it is at its cap."""
        index = self._next
        self._next = (self._next + 1) % len(self._inflight)
        if self.max_inflight and self._inflight[index] >= self.max_inflight:
            self.stats.admission_rejections += 1
            return None
        self._inflight[index] += 1
        return index

    def release(self, index: int) -> None:
        self._inflight[index] -= 1


class BrownoutResponder:
    """Publishes service-demand relief while the SLO is breached.

    Relief models what production brownout mode actually does — serve
    degraded responses (fewer ranking candidates, smaller feeds) and
    pull in spare replicas — which shows up in the simulation as a
    multiplicative *speedup* on CPU bursts.  Published exactly the way
    the fault injector's device channel publishes ``disk_degraded``
    slowdowns: to every attached target, with late-attach pickup, via
    the target's ``relief_speedup`` attribute.
    """

    __slots__ = (
        "policy",
        "stats",
        "steps",
        "_targets",
        "_breach_streak",
        "_healthy_streak",
    )

    def __init__(self, policy: SloControlPolicy, stats: SloControlStats) -> None:
        self.policy = policy
        self.stats = stats
        self.steps = 0
        self._targets: List[object] = []
        self._breach_streak = 0
        self._healthy_streak = 0

    def attach(self, target) -> None:
        """Register a target exposing ``relief_speedup`` (late-attach safe)."""
        self._targets.append(target)
        target.relief_speedup = self.relief_factor

    @property
    def relief_factor(self) -> float:
        """Current burst speedup (>= 1.0; 1.0 = full-quality serving)."""
        return (1.0 / (1.0 - BROWNOUT_RELIEF)) ** self.steps

    def _publish(self) -> None:
        factor = self.relief_factor
        for target in self._targets:
            target.relief_speedup = factor

    def on_window(self, window: WindowSnapshot) -> None:
        if _breached(window, self.policy, SLO_LATENCY_S):
            self._healthy_streak = 0
            self._breach_streak += 1
            if (
                self._breach_streak >= BROWNOUT_WINDOWS
                and self.steps < BROWNOUT_MAX_STEPS
            ):
                self._breach_streak = 0
                self.steps += 1
                self.stats.brownout_activations += 1
                self._publish()
        else:
            self._breach_streak = 0
            self._healthy_streak += 1
            if self._healthy_streak >= BROWNOUT_WINDOWS and self.steps > 0:
                self._healthy_streak = 0
                self.steps -= 1
                self.stats.brownout_recoveries += 1
                self._publish()


class SloControlPlane:
    """Tracker + shedder + admission + brownout behind one hook.

    The harness constructs one per run whose fault scenario carries a
    :class:`SloControlPolicy`, points the open-loop
    generator's ``on_complete`` at :meth:`on_complete`, and wraps the
    workload handler with :meth:`wrap_handler` so admission decisions
    fire before any service work queues.
    """

    def __init__(
        self,
        policy: SloControlPolicy,
        rng: random.Random,
        clock: Callable[[], float],
    ) -> None:
        self.stats = SloControlStats()
        self.tracker = WindowedSloTracker(
            window_completions=WINDOW_COMPLETIONS,
            slo_latency_s=SLO_LATENCY_S,
            clock=clock,
        )
        self.shedder = LoadShedder(policy, rng, self.stats)
        self.admission = AdmissionController(
            policy.admit_max_inflight_per_instance, self.stats
        )
        self.brownout = BrownoutResponder(policy, self.stats)
        #: Rejections raised but not yet observed by ``on_complete``.
        #: A shed/refused request fails synchronously inside the
        #: dispatcher's first resume, so its ``on_complete(None)`` fires
        #: before any other completion can interleave — the counter
        #: filters rejections out of the window signal exactly.
        self._pending_rejections = 0
        self.tracker.subscribe(self.shedder.on_window)
        if policy.brownout_enabled:
            self.tracker.subscribe(self.brownout.on_window)

    # -- harness integration ---------------------------------------------------
    def on_complete(self, latency: Optional[float]) -> None:
        """Completion hook chaining into window-close control actions.

        Requests this plane itself rejected (shed or admission-refused)
        are excluded from the window signal: the controllers judge the
        latency and error rate of *served* traffic, as CoDel does.
        Counting rejections as window errors would be a positive
        feedback loop — shedding would push the error rate over the
        breach threshold, which would raise the drop probability, which
        would shed more — pinning the shedder at its ceiling.
        """
        if latency is None and self._pending_rejections:
            self._pending_rejections -= 1
            return
        self.tracker.on_complete(latency)

    def wrap_handler(self, handler):
        """Gate ``handler`` behind shed + admission decisions.

        Shed and refused requests fail *before* the inner handler is
        entered — no service work is queued for them, which is the
        whole point of shedding: capacity freed for admitted requests.
        """
        plane = self

        def controlled_handler(request):
            stats = plane.stats
            stats.offered += 1
            if not plane.shedder.admits():
                stats.shed += 1
                plane._pending_rejections += 1
                raise RequestShedError(
                    f"request shed at admission "
                    f"(drop probability {plane.shedder.drop_probability:.2f})"
                )
            instance = plane.admission.try_acquire()
            if instance is None:
                plane._pending_rejections += 1
                raise AdmissionRejectedError(
                    "instance at its in-flight cap "
                    f"({plane.admission.max_inflight})"
                )
            stats.admitted += 1
            try:
                yield from handler(request)
            finally:
                plane.admission.release(instance)

        return controlled_handler

    def reset_measurement(self) -> None:
        """Warmup-edge reset: clear counters, keep controller state.

        The drop probability, relief steps, and in-flight counts carry
        across the edge — a production box that was already shedding
        when the measurement window opened keeps shedding — while every
        reported counter restarts at zero.
        """
        self.stats.reset()
        self.tracker.reset()

    # -- reporting -------------------------------------------------------------
    def as_extra(self, batch: int, elapsed: float) -> Dict[str, object]:
        """Flattened ``slo_*`` signals for ``WorkloadResult.extra``."""
        tracker = self.tracker
        out: Dict[str, object] = self.stats.as_extra()
        out["slo_windows"] = float(tracker.windows_closed)
        out["slo_window_completions"] = float(WINDOW_COMPLETIONS)
        out["slo_latency_s"] = SLO_LATENCY_S
        out["slo_completions"] = float(tracker.completions)
        out["slo_errors"] = float(tracker.errors)
        out["slo_met"] = float(tracker.slo_met)
        out["slo_goodput_rps"] = tracker.slo_met * batch / elapsed
        out["slo_goodput_fraction"] = tracker.goodput_fraction()
        out["slo_p50"] = tracker.cumulative_percentile(50.0)
        out["slo_p95"] = tracker.cumulative_percentile(95.0)
        out["slo_p99"] = tracker.cumulative_percentile(99.0)
        out["slo_stall_seconds"] = tracker.stall_seconds
        out["slo_drop_probability"] = self.shedder.drop_probability
        out["slo_relief_factor"] = self.brownout.relief_factor
        out["slo_brownout_steps"] = float(self.brownout.steps)
        out["slo_instances"] = float(self.admission.num_instances)
        out["slo_window_series"] = tracker.window_series()
        return out
