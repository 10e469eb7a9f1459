"""Shared discrete-event execution harness.

Couples the analytical model (service rates) with the event-level
concurrency structure (thread pools, queues, schedulers).  The split of
responsibilities:

* :class:`ServerModel` — the instruction rate of one logical core for
  the (workload, SKU) pair, from the projection engine's IPC and
  frequency.
* :class:`ThreadPool` — a worker pool pulling work items off a queue;
  models UWSGI worker processes, HHVM threads, TAO fast/slow pools.
* :class:`BenchmarkHarness` — wires a load generator to a handler,
  runs warmup + measurement windows, and assembles a
  :class:`WorkloadResult` with both simulated observations (throughput,
  latency, utilization) and model-derived microarchitecture metrics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, Optional, Tuple

from repro.faults.control import SloControlPlane
from repro.faults.injector import FaultInjector
from repro.faults.resilience import ResilienceStats, ServiceClient
from repro.loadgen.windows import WindowedSloTracker
from repro.loadgen.generators import Handler, OpenLoopGenerator, Request
from repro.loadgen.recorder import LatencyRecorder
from repro.oskernel.kernel import KernelVersion
from repro.oskernel.scheduler import CpuScheduler
from repro.hw.sku import ServerSku
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.uarch.projection import ProjectionEngine, SteadyState
from repro.workloads.base import RunConfig, WorkloadResult


@dataclass
class ServerModel:
    """Analytic rates for one (workload, SKU, kernel) combination."""

    sku: ServerSku
    kernel: KernelVersion
    chars: WorkloadCharacteristics
    util_hint: float = 0.9

    def __post_init__(self) -> None:
        self.engine = ProjectionEngine(self.sku)
        state = self.engine.solve(self.chars, cpu_util=self.util_hint)
        self.effective_freq_ghz = state.effective_freq_ghz
        self.ipc_thread = state.tmam.ipc_per_thread
        cpu = self.sku.cpu
        smt_boost = 1.0 + (cpu.smt_throughput_factor - 1.0) * self.chars.smt_friendly
        #: Instructions per second one logical core sustains.
        self.per_logical_ips = (
            self.ipc_thread
            * self.effective_freq_ghz
            * 1e9
            * (smt_boost / cpu.smt)
        )
        #: Instructions per second the whole server sustains at 100%.
        self.server_ips = self.per_logical_ips * cpu.logical_cores

    def capacity_rps(self) -> float:
        """Unimpeded request capacity (no queueing/scheduler losses)."""
        return self.server_ips / self.chars.instructions_per_request

    def steady_state(
        self, cpu_util: float, scaling_efficiency: float
    ) -> SteadyState:
        """Model-side metrics at the measured operating point."""
        return self.engine.solve(
            self.chars,
            cpu_util=max(0.01, min(1.0, cpu_util)),
            scaling_efficiency=max(0.01, min(1.0, scaling_efficiency)),
        )


class ConvergenceMonitor:
    """Deterministic steady-state detector over completion-count windows.

    Groups successful completions into fixed-size windows of
    :attr:`WINDOW` requests, keeps the mean latency of the last
    :attr:`WINDOWS` windows, and declares convergence when their
    coefficient of variation drops below :attr:`COV_THRESHOLD`.  The
    test depends only on the completion sequence — never on wall time —
    so two runs of the same seed stop at the same simulated instant.

    Errors and timed-out requests (latency ``None``) do not count
    toward a window: a fault-degraded stretch keeps windows open rather
    than converging on garbage.  Fault-injection runs skip the monitor
    entirely (their measurement windows are deliberately
    non-stationary).
    """

    #: Successful completions per window.
    WINDOW = 200
    #: Trailing windows whose means must agree.
    WINDOWS = 5
    #: Coefficient-of-variation threshold for "converged".
    COV_THRESHOLD = 0.04

    __slots__ = (
        "env",
        "window",
        "threshold",
        "_sum",
        "_count",
        "_means",
        "windows_closed",
        "converged_at",
    )

    def __init__(
        self,
        env: Environment,
        window: int = WINDOW,
        windows: int = WINDOWS,
        threshold: float = COV_THRESHOLD,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if windows < 2:
            raise ValueError("windows must be >= 2")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.env = env
        self.window = window
        self.threshold = threshold
        self._sum = 0.0
        self._count = 0
        self._means: Deque[float] = deque(maxlen=windows)
        self.windows_closed = 0
        self.converged_at: Optional[float] = None

    def on_complete(self, latency: Optional[float]) -> None:
        """Generator completion hook; stops the run once converged."""
        if latency is None or self.converged_at is not None:
            return
        self._sum += latency
        self._count += 1
        if self._count < self.window:
            return
        means = self._means
        means.append(self._sum / self._count)
        self._sum = 0.0
        self._count = 0
        self.windows_closed += 1
        if len(means) < means.maxlen:
            return
        mean = sum(means) / len(means)
        if mean <= 0.0:
            return
        variance = sum((m - mean) ** 2 for m in means) / len(means)
        if variance ** 0.5 / mean < self.threshold:
            self.converged_at = self.env.now
            self.env.stop()


class _WorkerDock:
    """Parking lot for idle pool workers, yieldable like an event.

    A worker that yields the dock never schedules anything: the process
    machinery appends its resume callback here, and :meth:`append`
    either hands it a backlogged item immediately or files it as idle.
    ``submit`` wakes idle workers the same way.  Every handoff is one
    recycled resume entry through the engine's freelist — no put/get
    event pair, no allocations at steady state.
    """

    __slots__ = ("pool", "idle")

    def __init__(self, pool: "ThreadPool") -> None:
        self.pool = pool
        self.idle: Deque[Callable] = deque()

    @property
    def callbacks(self) -> "_WorkerDock":
        # Ducks as Event.callbacks so a process can yield the dock.
        return self

    def append(self, resume: Callable) -> None:
        pool = self.pool
        if pool._backlog:
            pool.env._schedule_resume(resume, True, pool._backlog.popleft())
        else:
            self.idle.append(resume)

    def remove(self, resume: Callable) -> None:
        # Interrupting a parked worker unsubscribes it, like any event.
        self.idle.remove(resume)


class ThreadPool:
    """A pool of worker threads fed by a FIFO queue.

    Work items are generator factories; a worker runs one item at a
    time to completion.  Queue depth is observable for backpressure
    modeling.
    """

    __slots__ = ("env", "name", "num_threads", "_backlog", "_dock", "completed")

    def __init__(
        self,
        env: Environment,
        name: str,
        num_threads: int,
    ) -> None:
        if num_threads < 1:
            raise ValueError(f"{name}: num_threads must be >= 1")
        self.env = env
        self.name = name
        self.num_threads = num_threads
        self._backlog: Deque[tuple] = deque()
        self._dock = _WorkerDock(self)
        self.completed = 0
        for _ in range(num_threads):
            env.process(self._worker())

    def submit(self, work: Callable[[], Generator]) -> Event:
        """Queue a work item; the returned event fires on completion."""
        env = self.env
        done = Event(env)
        idle = self._dock.idle
        if idle:
            env._schedule_resume(idle.popleft(), True, (work, done))
        else:
            self._backlog.append((work, done))
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._backlog)

    def _worker(self) -> Generator:
        dock = self._dock
        while True:
            work, done = yield dock
            try:
                yield from work()
            except Exception as exc:  # propagate into the waiter
                if done.callbacks:
                    done.fail(exc)
                # No waiter left (the request was abandoned by a
                # deadline/hedge): swallow the failure instead of
                # leaving an orphaned failed event to crash the sim.
            else:
                done.succeed()
                self.completed += 1


class BenchmarkHarness:
    """One benchmark execution: environment, scheduler, measurement."""

    #: Utilization sampling period for the timeline (sim seconds).
    SAMPLE_PERIOD_S = 0.1

    def __init__(
        self, config: RunConfig, chars: WorkloadCharacteristics, batch: int = 1
    ) -> None:
        self.config = config
        self.chars = chars
        #: Production requests one simulated request stands for.  The
        #: workload picks it (very-high-RPS servers simulate in
        #: batches); bursts, arrivals and throughput all scale by it.
        self.batch = batch
        self.sku = config.sku
        self.kernel = config.kernel
        self.env = Environment()
        self.server = ServerModel(self.sku, self.kernel, chars)
        cpu = self.sku.cpu
        smt_boost = 1.0 + (cpu.smt_throughput_factor - 1.0) * chars.smt_friendly
        self.scheduler = CpuScheduler(
            env=self.env,
            logical_cores=cpu.logical_cores,
            freq_ghz=self.server.effective_freq_ghz,
            kernel=self.kernel,
            single_thread_speedup=max(1.0, cpu.smt / smt_boost),
        )
        self.recorder = LatencyRecorder()
        self.rng = RngStreams(config.seed).spawn(chars.name)
        self.timeline: list = []
        self.injector: Optional[FaultInjector] = None
        if config.faults:
            self.injector = FaultInjector(
                env=self.env,
                schedule=config.faults,
                scheduler=self.scheduler,
                rng=self.rng.stream("faults"),
                window_start=config.warmup_seconds,
                window_seconds=config.measure_seconds,
                memory_intensity=self._memory_intensity(chars),
            )
        self.resilience_stats = ResilienceStats()
        self.client: Optional[ServiceClient] = None
        if config.resilience.enabled:
            self.client = ServiceClient(
                env=self.env,
                policy=config.resilience,
                rng=self.rng.stream("resilience"),
                injector=self.injector,
                stats=self.resilience_stats,
            )
        self.control: Optional[SloControlPlane] = None
        if config.slo_control.enabled:
            env = self.env
            self.control = SloControlPlane(
                policy=config.slo_control,
                rng=self.rng.stream("slo-control"),
                clock=lambda: env.now,
            )
            # Brownout relief publishes to the scheduler the way
            # disk_degraded publishes to attached block devices.
            self.control.brownout.attach(self.scheduler)

    @staticmethod
    def _memory_intensity(chars: WorkloadCharacteristics) -> float:
        """Memory-boundness proxy in [0, 1] for fault severity scaling.

        Workloads with large data working sets and high memory traffic
        suffer more from memory pressure and cache flushes.
        """
        return min(
            1.0,
            chars.data_reuse_kb / 4096.0 + chars.mem_refs_per_kinstr / 1200.0,
        )

    # --- burst helpers --------------------------------------------------------
    def burst_args(
        self,
        instructions: float,
        kernel_frac: Optional[float] = None,
        dispatches_per_request: int = 1,
    ) -> Tuple[float, float, int]:
        """``(user_seconds, kernel_seconds, dispatches)`` of one burst:
        ``instructions`` on one logical core, times the batch factor,
        split by the kernel fraction.  They are fixed for the harness's
        life (``CpuScheduler.execute`` applies faults and relief on each
        burst), so the LLM engine computes each decode step's once.

        ``dispatches_per_request`` is the number of production-side
        scheduling events this burst represents per request (e.g. a
        cache-miss path that naps on the backend wakes the thread
        again); it multiplies with the batch factor.
        """
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        kf = self.chars.kernel_frac if kernel_frac is None else kernel_frac
        seconds = instructions / self.server.per_logical_ips * self.batch
        return seconds * (1.0 - kf), seconds * kf, self.batch * dispatches_per_request

    def burst(
        self,
        instructions: float,
        kernel_frac: Optional[float] = None,
        dispatches_per_request: int = 1,
    ):
        """One CPU burst (arguments as :meth:`burst_args`): the scheduler's
        ``execute`` generator, for the caller to ``yield from``."""
        # Unpacked, not starred: the star call is slower, on every burst.
        user, kernel, dispatches = self.burst_args(
            instructions, kernel_frac, dispatches_per_request
        )
        return self.scheduler.execute(user, kernel, dispatches)

    def wait_online(self) -> Generator:
        """Hold background work (an LLM engine step, an LSM compaction)
        until a crashed server restarts: unlike a request, which fails
        and retries at the client, it then runs as planned."""
        while self.scheduler.offline:
            yield self.injector.restarted()

    def make_pool(self, name: str, num_threads: int) -> ThreadPool:
        return ThreadPool(self.env, name, num_threads)

    # --- measurement ----------------------------------------------------------
    def run_open_loop(
        self,
        handler: Handler,
        offered_rps: float,
        timeout_seconds: Optional[float] = None,
    ) -> WorkloadResult:
        """Drive ``handler`` with Poisson arrivals and measure.

        ``offered_rps`` is in production requests/s; the generator
        issues ``offered_rps / batch`` simulated arrivals per second.

        When the run config carries a resilience policy, every request
        goes through the :class:`~repro.faults.resilience.ServiceClient`
        pipeline; when it carries a fault schedule, the injector starts
        before warmup so fault onsets (fractions of the measurement
        window) land deterministically.

        With ``config.early_stop`` set (and no fault schedule), a
        :class:`ConvergenceMonitor` watches completions during the
        measurement window and ends the run at the first converged
        window boundary; throughput and goodput then normalize by the
        simulated seconds actually measured.  Without early stop the
        measured span equals ``measure_seconds`` exactly and reports
        are byte-identical to the fixed-window path.
        """
        generator = OpenLoopGenerator(
            env=self.env,
            rate_rps=offered_rps / self.batch,
            handler=self._wrap_handler(handler),
            recorder=self.recorder,
            rng=self.rng.stream("arrivals"),
            timeout_seconds=timeout_seconds,
        )
        if self.injector is not None:
            self.injector.start()
        if self.control is not None:
            # The control plane observes (and sheds) from t=0: a
            # production box reaching the measurement window has
            # already converged on its operating point.
            generator.on_complete = self.control.on_complete
        generator.start()
        self.env.run(until=self.config.warmup_seconds)
        self.recorder.reset()
        self.scheduler.stats.reset(self.env.now)
        self.resilience_stats.reset()
        if self.control is not None:
            # Counters restart at the warmup edge; controller *state*
            # (drop probability, relief steps, in-flight) carries over.
            self.control.reset_measurement()
        self.env.process(self._sampler())
        completed_before = generator.completed
        monitor = None
        if (
            self.config.early_stop
            and self.injector is None
            and self.control is None
        ):
            # Armed only for the measurement window: warmup completions
            # must not seed the convergence windows.  Control-plane runs
            # never arm it — shedding makes their windows deliberately
            # non-stationary, exactly like fault runs.
            monitor = ConvergenceMonitor(self.env)
            generator.on_complete = monitor.on_complete
        measure_start = self.env.now
        self.env.run(until=self.config.warmup_seconds + self.config.measure_seconds)
        # Subtract clocks only when the run actually stopped early: the
        # full window is ``measure_seconds`` *by definition*, and the
        # float round-trip (warmup + measure) - warmup would perturb
        # throughput in its last bits and break byte-identical reports.
        if monitor is not None and monitor.converged_at is not None:
            measured_seconds = self.env.now - measure_start
        else:
            measured_seconds = self.config.measure_seconds
        completed = generator.completed - completed_before
        result = self._assemble(completed, measured_seconds)
        self._attach_fault_metrics(result, measured_seconds)
        if monitor is not None:
            result.extra["measured_seconds"] = measured_seconds
            result.extra["early_stopped"] = (
                1.0 if monitor.converged_at is not None else 0.0
            )
            result.extra["convergence_windows"] = float(monitor.windows_closed)
        if self.config.shard_index >= 0:
            # Shard sub-runs ship their full recorder state (errors and
            # sorted samples) so the parent merge computes the
            # union-stream percentiles exactly, instead of averaging
            # per-shard summaries.
            result.extra["shard_latency"] = self.recorder.mergeable_state()
        return result

    def _wrap_handler(self, handler: Handler) -> Handler:
        """Route requests through resilience + SLO-control pipelines.

        The control wrapper is outermost: shed/refused requests fail at
        admission, before the resilience client would spend retries (or
        any service work) on them.
        """
        client = self.client
        if client is not None:
            inner = handler

            def resilient_handler(request: Request) -> Generator:
                yield from client.call(lambda: inner(request))

            handler = resilient_handler
        if self.control is not None:
            handler = self.control.wrap_handler(handler)
        return handler

    @property
    def slo_tracker(self) -> Optional[WindowedSloTracker]:
        """The control plane's windowed tracker, when the run has one.

        Workloads use this to fold extra signals into the SLO windows —
        StorageBench attributes block-device write-stall time here so
        stalls land in the SLO accounting, not just the iostat section.
        """
        return self.control.tracker if self.control is not None else None

    def register_instance_set(self, instances: "InstanceSet") -> None:
        """Size the admission controller to an InstanceSet's instances."""
        if self.control is not None:
            self.control.admission.set_instances(instances.num_instances)

    def _attach_fault_metrics(
        self, result: WorkloadResult, elapsed: Optional[float] = None
    ) -> None:
        """Surface resilience/fault counters in ``result.extra``."""
        if elapsed is None:
            elapsed = self.config.measure_seconds
        if self.client is not None:
            stats = self.resilience_stats
            result.extra.update(stats.as_extra())
            result.extra["resilience_goodput_rps"] = (
                stats.successes * self.batch / elapsed
            )
            slo = self.client.policy.slo_latency_s
            result.extra["resilience_slo_latency_s"] = slo
            result.extra["resilience_slo_compliance"] = self.recorder.fraction_below(
                slo
            )
        if self.injector is not None:
            result.extra["fault_events_applied"] = float(
                self.injector.events_applied
            )
        if self.control is not None:
            result.extra.update(
                self.control.as_extra(self.batch, elapsed)
            )

    def _sampler(self) -> Generator:
        """Record (time, utilization) samples during measurement."""
        cores = self.sku.cpu.logical_cores
        previous_busy = self.scheduler.stats.busy_seconds
        while True:
            yield self.env.sleep(self.SAMPLE_PERIOD_S)
            busy = self.scheduler.stats.busy_seconds
            window_util = min(
                1.0, (busy - previous_busy) / (self.SAMPLE_PERIOD_S * cores)
            )
            previous_busy = busy
            self.timeline.append((self.env.now, window_util))

    def _assemble(
        self, completed_requests: int, elapsed: Optional[float] = None
    ) -> WorkloadResult:
        if elapsed is None:
            elapsed = self.config.measure_seconds
        cores = self.sku.cpu.logical_cores
        stats = self.scheduler.stats
        cpu_util = stats.cpu_util(self.env.now, cores)
        kernel_util = stats.kernel_util(self.env.now, cores)
        busy = max(stats.busy_seconds, 1e-12)
        efficiency = max(0.05, 1.0 - stats.overhead_seconds / busy)
        throughput = completed_requests * self.batch / elapsed
        steady = self.server.steady_state(cpu_util, efficiency)
        return WorkloadResult(
            timeline=list(self.timeline),
            workload=self.chars.name,
            sku=self.sku.name,
            kernel=self.kernel.version,
            throughput_rps=throughput,
            latency=self.recorder.summary(),
            cpu_util=cpu_util,
            kernel_util=kernel_util,
            scaling_efficiency=efficiency,
            steady=steady,
        )


class InstanceSet:
    """Multi-instance deployment with per-instance serialized sections.

    DCPerf spawns multiple benchmark instances on many-core machines to
    model production multi-tenancy (Section 2.2).  Each instance still
    has a serialized slice per request — allocator locks, GC, the
    master process — and, critically, that slice is *memory-latency
    bound*: it runs at a rate set by frequency and DRAM latency, not by
    the core's IPC improvements.  Wider/smarter cores therefore shrink
    the parallel part of a request but not the serial part, which is
    one reason production web workloads gain less from new many-core
    SKUs than SPEC suggests (Figures 2/3).
    """

    #: Logical cores served by one instance (production sizing).
    CORES_PER_INSTANCE = 36

    def __init__(self, harness: "BenchmarkHarness") -> None:
        self.harness = harness
        logical = harness.sku.cpu.logical_cores
        self.num_instances = max(
            1, -(-logical // self.CORES_PER_INSTANCE)  # ceil division
        )
        self._locks = [
            Resource(harness.env, capacity=1) for _ in range(self.num_instances)
        ]
        self._next = 0
        # The SLO control plane's admission controller caps in-flight
        # work per instance; tell it how many instances exist.
        harness.register_instance_set(self)

    def pick(self) -> int:
        """Round-robin instance assignment for a new request."""
        index = self._next
        # Wrap at increment so the counter stays bounded over
        # arbitrarily long simulations instead of growing without limit.
        self._next = (self._next + 1) % self.num_instances
        return index

    def serial_seconds(self, instructions: float) -> float:
        """Duration of a serialized slice: latency-bound, IPC-blind."""
        freq_hz = self.harness.server.effective_freq_ghz * 1e9
        return instructions / freq_hz * self.harness.batch

    def serial_section(self, instance: int, instructions: float):
        """Run a serialized slice under the instance's lock (generator)."""
        lock = self._locks[instance]
        grant = lock.request()
        try:
            yield grant
        except BaseException:
            # Abandoned while queued for (or just granted) the lock:
            # release so the slot cannot leak.
            lock.release(grant)
            raise
        try:
            seconds = self.serial_seconds(instructions)
            kf = self.harness.chars.kernel_frac
            yield from self.harness.scheduler.execute(
                seconds * (1.0 - kf), seconds * kf,
                dispatches=self.harness.batch,
            )
        finally:
            lock.release(grant)
