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

from dataclasses import dataclass

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

    def __init__(
        self,
        env: Environment,
        logical_cores: int,
        freq_ghz: float,
        kernel: KernelVersion,
        single_thread_speedup: float = 1.0,
    ) -> None:
        if logical_cores < 1:
            raise ValueError("logical_cores must be >= 1")
        if single_thread_speedup < 1.0:
            raise ValueError("single_thread_speedup must be >= 1.0")
        self.env = env
        self.logical_cores = logical_cores
        self.kernel = kernel
        self.stats = SchedulerStats(window_start=env.now)
        #: Multiplier the fault injector applies to every burst (>= 1.0);
        #: 1.0 means no active CPU-channel fault.
        self.fault_slowdown = 1.0
        #: Speedup the SLO control plane's brownout responder publishes
        #: (>= 1.0): degraded serving / replica scale-out makes every
        #: request cheaper.  1.0 means full-quality serving.
        self.relief_speedup = 1.0
        #: True while a simulated crash/restart is in progress: new
        #: dispatches are refused, in-flight bursts drain.
        self.offline = False
        self.cores = Resource(env, capacity=logical_cores)
        # Per-dispatch overhead is invariant in (kernel, logical_cores)
        # and linear in 1/freq: the pieces are computed once, and the
        # ``freq_ghz`` setter prices ``dispatch_overhead_seconds`` from
        # them.  The occupancy speedup is a pure function of the
        # busy-core count, so the whole curve is a table indexed by
        # ``cores.count``, each entry computed by the per-count
        # arithmetic, bit for bit.
        self._overhead_base = kernel.context_switch_us * 1e-6
        self._overhead_cycles = kernel.loadavg_cost_cycles(logical_cores)
        self.freq_ghz = freq_ghz
        speedup = single_thread_speedup
        table = []
        for count in range(logical_cores + 1):
            if speedup <= 1.0:
                table.append(1.0)
                continue
            occupancy = count / logical_cores
            if occupancy <= 0.5:
                table.append(speedup)
            else:
                frac = (occupancy - 0.5) / 0.5
                table.append(speedup - frac * (speedup - 1.0))
        self._speedup_by_count = table

    @property
    def freq_ghz(self) -> float:
        """Core frequency; the fault injector throttles and restores it."""
        return self._freq_ghz

    @freq_ghz.setter
    def freq_ghz(self, freq: float) -> None:
        if freq <= 0:
            raise ValueError("freq_ghz must be positive")
        self._freq_ghz = freq
        #: Kernel cost charged per dispatch (switch + load-avg update),
        #: repriced only here, when the frequency changes.
        self.dispatch_overhead_seconds = (
            self._overhead_base + self._overhead_cycles / (freq * 1e9)
        )

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

        A free core is claimed inline, with no request event, when
        nobody waits for a core and the grant would be the next event
        the run loop processes anyway
        (:meth:`~repro.sim.engine.Environment._grant_is_next`): the
        at-now deque is empty, the heap head is strictly later than now,
        ``stop()`` has not been called, now is strictly before the run's
        ``until`` bound, and the loop is not fanning one event out to
        several callbacks.  The claim consumes the grant's sequence
        number.  Otherwise the burst requests a core and yields until it
        is granted.  Both paths give the same event order, RNG draws and
        floats.

        The claim rule, the pricing below and the stats booking have a
        second reader: a uniform LLM decode run
        (:meth:`repro.llm.engine.LlmReplica._loop`) repeats them inline,
        field for field, to skip this generator on each of its steps.
        A change here must be made there too.
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
        env = self.env
        cores = self.cores
        if (
            not cores._waiters
            and cores._in_use < cores.capacity
            and env._grant_is_next()
        ):
            # Take the core, and the sequence number its queued grant
            # event would have taken.
            cores._in_use += 1
            env._seq += 1
        else:
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
            yield env.sleep(duration)
        finally:
            # The core is held either way: claimed, or granted to the
            # request.
            cores.release_claim()
            stats = self.stats
            stats.busy_seconds += duration
            stats.kernel_seconds += kernel_seconds
            stats.overhead_seconds += overhead
            stats.dispatch_count += dispatches
