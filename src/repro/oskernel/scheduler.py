"""Discrete-event CPU scheduler.

Wraps a :class:`repro.sim.Resource` of logical cores and charges kernel
overhead (context switch + load-average update) on every dispatch.
Workload models execute CPU bursts through :meth:`CpuScheduler.execute`
from inside a sim process::

    def worker(env, sched):
        yield from sched.execute(service_seconds, kernel_seconds)

Statistics are accumulated for the utilization and kernel-time figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.errors import ServerUnavailableError
from repro.oskernel.kernel import KernelVersion
from repro.sim.engine import Environment
from repro.sim.resources import Resource


@dataclass
class SchedulerStats:
    """Aggregated busy-time accounting for one simulation run."""

    busy_seconds: float = 0.0
    kernel_seconds: float = 0.0
    dispatch_count: int = 0
    overhead_seconds: float = 0.0
    window_start: float = 0.0

    def reset(self, now: float) -> None:
        self.busy_seconds = 0.0
        self.kernel_seconds = 0.0
        self.dispatch_count = 0
        self.overhead_seconds = 0.0
        self.window_start = now

    def cpu_util(self, now: float, logical_cores: int) -> float:
        """Total CPU utilization over the observation window."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * logical_cores))

    def kernel_util(self, now: float, logical_cores: int) -> float:
        """Kernel-mode CPU utilization over the observation window."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        kernel_time = self.kernel_seconds + self.overhead_seconds
        return min(1.0, kernel_time / (elapsed * logical_cores))


@dataclass
class CpuScheduler:
    """A pool of logical cores with per-dispatch kernel overhead.

    ``single_thread_speedup`` models SMT interference: burst durations
    are calibrated to the fully-loaded machine (all SMT siblings busy);
    when fewer than half the logical cores are occupied each thread has
    a physical core to itself and runs this much faster (typically
    ``smt / smt_boost`` ~ 1.5x).  The speedup decays linearly to 1.0 as
    occupancy approaches full.  This is why request latency degrades
    well before 100% utilization on SMT machines — and one reason
    SLO-bound workloads like FeedSim peak at 50-70% CPU (Figure 9).
    """

    env: Environment
    logical_cores: int
    freq_ghz: float
    kernel: KernelVersion
    single_thread_speedup: float = 1.0
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    #: Multiplier the fault injector applies to every burst (>= 1.0);
    #: 1.0 means no active CPU-channel fault.
    fault_slowdown: float = 1.0
    #: Speedup the SLO control plane's brownout responder publishes
    #: (>= 1.0): degraded serving / replica scale-out makes every
    #: request cheaper.  1.0 means full-quality serving.
    relief_speedup: float = 1.0
    #: True while a simulated crash/restart is in progress: new
    #: dispatches are refused, in-flight bursts drain.
    offline: bool = False

    def __post_init__(self) -> None:
        if self.logical_cores < 1:
            raise ValueError("logical_cores must be >= 1")
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if self.single_thread_speedup < 1.0:
            raise ValueError("single_thread_speedup must be >= 1.0")
        self.cores = Resource(self.env, capacity=self.logical_cores)
        self.stats.window_start = self.env.now
        # Per-dispatch overhead is invariant in (kernel, logical_cores)
        # and linear in 1/freq; precompute the pieces once instead of
        # re-asking the kernel model on every burst.  The occupancy
        # speedup is a pure function of the busy-core count, so the
        # whole curve is a table indexed by ``cores.count`` — built
        # with the exact per-count arithmetic of the former method, so
        # table lookups are bit-identical to on-the-fly evaluation.
        self._overhead_base = self.kernel.context_switch_us * 1e-6
        self._overhead_cycles = self.kernel.loadavg_cost_cycles(self.logical_cores)
        self._overhead_freq = 0.0
        self._overhead_cached = 0.0
        speedup = self.single_thread_speedup
        table = []
        for count in range(self.logical_cores + 1):
            if speedup <= 1.0:
                table.append(1.0)
                continue
            occupancy = count / self.logical_cores
            if occupancy <= 0.5:
                table.append(speedup)
            else:
                frac = (occupancy - 0.5) / 0.5
                table.append(speedup - frac * (speedup - 1.0))
        self._speedup_by_count = table

    @property
    def dispatch_overhead_seconds(self) -> float:
        """Kernel cost charged per dispatch (switch + load-avg update).

        Cached keyed on the current frequency: the fault injector
        mutates ``freq_ghz`` at runtime (throttle faults), so the cache
        re-validates by comparing the stored frequency on every access
        and recomputes only when it actually changed.
        """
        freq = self.freq_ghz
        if freq != self._overhead_freq:
            self._overhead_freq = freq
            self._overhead_cached = (
                self._overhead_base + self._overhead_cycles / (freq * 1e9)
            )
        return self._overhead_cached

    def execute(
        self,
        user_seconds: float,
        kernel_seconds: float = 0.0,
        dispatches: int = 1,
    ):
        """Run one CPU burst on a core (generator; use ``yield from``).

        Holds a logical core for the burst duration plus the dispatch
        overhead, then releases it.  ``kernel_seconds`` is the portion
        of the burst spent in kernel mode (syscalls); dispatch overhead
        is always kernel time.  ``dispatches`` scales the overhead for
        batched simulation (one simulated burst standing for N
        production-side dispatches).

        A free core is taken inline (:meth:`Resource.claim`) when nobody
        waits for a core and the grant would be the next event the run
        loop processes anyway: the at-now deque is empty, the heap head
        is strictly later than now, ``stop()`` has not been called, now
        is strictly before the run's ``until`` bound, and the loop is not
        fanning one event out to several callbacks.  Otherwise the burst
        requests a core and yields until it is granted.  Both paths give
        the same event order, RNG draws and floats.
        """
        if not (user_seconds >= 0 and kernel_seconds >= 0):
            # Also rejects NaN, before a core is claimed or stats move.
            raise ValueError("burst durations must be non-negative numbers")
        if dispatches < 1:
            raise ValueError("dispatches must be >= 1")
        if self.offline:
            raise ServerUnavailableError(
                "server is down (simulated crash/restart in progress)"
            )
        cores = self.cores
        if not cores.claim():
            request = cores.request()
            try:
                yield request
            except BaseException:
                # Interrupted (abandoned request / deadline) while
                # waiting for — or at the instant of being granted — a
                # core: hand the slot back so it cannot leak.
                cores.release(request)
                raise
        # Execution speedup at the current core occupancy.
        speedup = self._speedup_by_count[cores._in_use]
        overhead = self.dispatch_overhead_seconds * dispatches
        duration = (user_seconds + kernel_seconds) / speedup + overhead
        duration *= self.fault_slowdown
        # Guarded so runs without an active brownout response skip the
        # division entirely and stay bit-identical to the pre-control
        # arithmetic.
        if self.relief_speedup != 1.0:
            duration /= self.relief_speedup
        try:
            yield self.env.sleep(duration)
        finally:
            # The core is held either way: claimed, or granted to the
            # request.
            cores.release_claim()
            self.stats.busy_seconds += duration
            self.stats.kernel_seconds += kernel_seconds
            self.stats.overhead_seconds += overhead
            self.stats.dispatch_count += dispatches
