"""Tests for the shared execution harness."""

import pytest

from repro.oskernel.kernel import KERNEL_6_9
from repro.hw.sku import get_sku
from repro.loadgen.generators import Request
from repro.oskernel.scheduler import CpuScheduler
from repro.workloads.base import RunConfig
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import (
    BenchmarkHarness,
    InstanceSet,
    ServerModel,
    ThreadPool,
)


@pytest.fixture
def chars():
    return BENCHMARK_PROFILES["mediawiki"]


class TestServerModel:
    def test_rates_positive_and_consistent(self, chars):
        model = ServerModel(get_sku("SKU2"), KERNEL_6_9, chars)
        assert model.per_logical_ips > 1e8
        assert model.server_ips == pytest.approx(
            model.per_logical_ips * 52
        )

    def test_service_seconds(self, chars):
        """The model's per-core rate sets a burst's core-seconds."""
        harness = BenchmarkHarness(RunConfig(sku_name="SKU2"), chars)
        ips = harness.server.per_logical_ips
        user, kernel, _ = harness.burst_args(ips, kernel_frac=0.0)
        assert (user, kernel) == (pytest.approx(1.0), 0.0)
        with pytest.raises(ValueError):
            harness.burst_args(-1.0)

    def test_capacity_rps(self, chars):
        model = ServerModel(get_sku("SKU2"), KERNEL_6_9, chars)
        expected = model.server_ips / chars.instructions_per_request
        assert model.capacity_rps() == pytest.approx(expected)

    def test_bigger_sku_more_capacity(self, chars):
        small = ServerModel(get_sku("SKU1"), KERNEL_6_9, chars)
        large = ServerModel(get_sku("SKU4"), KERNEL_6_9, chars)
        assert large.capacity_rps() > 2 * small.capacity_rps()

    def test_steady_state_clamps(self, chars):
        model = ServerModel(get_sku("SKU2"), KERNEL_6_9, chars)
        state = model.steady_state(cpu_util=1.7, scaling_efficiency=2.0)
        assert state.cpu_util == 1.0


class TestThreadPool:
    def test_bounded_concurrency(self, env):
        pool = ThreadPool(env, "p", num_threads=2)
        running = [0]
        peak = [0]

        def work():
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            yield env.timeout(1.0)
            running[0] -= 1

        events = [pool.submit(work) for _ in range(6)]
        env.run()
        assert peak[0] == 2
        assert pool.completed == 6
        assert all(e.processed for e in events)

    def test_exception_propagates_to_waiter(self, env):
        pool = ThreadPool(env, "p", num_threads=1)
        caught = []

        def bad():
            yield env.timeout(0.1)
            raise RuntimeError("task failed")

        def waiter():
            try:
                yield pool.submit(bad)
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter())
        env.run()
        assert caught == ["task failed"]

    def test_worker_survives_exception(self, env):
        """A failing item must not kill the worker."""
        pool = ThreadPool(env, "p", num_threads=1)

        def bad():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        def good():
            yield env.timeout(0.1)

        first = pool.submit(bad)
        second = pool.submit(good)
        # Swallow the failure so it doesn't surface as unhandled.
        def waiter():
            try:
                yield first
            except RuntimeError:
                pass
            yield second

        env.process(waiter())
        env.run()
        assert pool.completed == 1

    def test_validation(self, env):
        with pytest.raises(ValueError):
            ThreadPool(env, "p", num_threads=0)


class TestInstanceSet:
    def test_instance_count_scales_with_cores(self, chars):
        def count(sku):
            harness = BenchmarkHarness(RunConfig(sku_name=sku), chars)
            return InstanceSet(harness).num_instances

        assert count("SKU1") == 1
        assert count("SKU2") == 2   # ceil(52/36)
        assert count("SKU4") == 5   # ceil(176/36)

    def test_round_robin_pick(self, chars):
        harness = BenchmarkHarness(RunConfig(sku_name="SKU4"), chars)
        instances = InstanceSet(harness)
        picks = [instances.pick() for _ in range(10)]
        assert picks[:5] == [0, 1, 2, 3, 4]
        assert picks[5] == 0

    def test_pick_counter_stays_bounded(self, chars):
        """Regression: the round-robin cursor must wrap at increment,
        not grow without bound over long simulations."""
        harness = BenchmarkHarness(RunConfig(sku_name="SKU4"), chars)
        instances = InstanceSet(harness)
        n = instances.num_instances
        picks = [instances.pick() for _ in range(7 * n + 3)]
        assert picks == [i % n for i in range(7 * n + 3)]
        assert 0 <= instances._next < n

    def test_serial_seconds_is_ipc_blind(self, chars):
        """The serialized slice runs at frequency speed, not IPC speed:
        the same instructions take similar time on SKU1 and SKU4
        (unlike the parallel part, which is much faster on SKU4)."""
        h1 = BenchmarkHarness(RunConfig(sku_name="SKU1"), chars)
        h4 = BenchmarkHarness(RunConfig(sku_name="SKU4"), chars)
        serial_1 = InstanceSet(h1).serial_seconds(1e6)
        serial_4 = InstanceSet(h4).serial_seconds(1e6)
        assert serial_4 / serial_1 < 1.4  # only the frequency ratio
        parallel_1 = h1.burst_args(1e6, kernel_frac=0.0)[0]
        parallel_4 = h4.burst_args(1e6, kernel_frac=0.0)[0]
        assert parallel_1 / parallel_4 > serial_1 / serial_4


class TestBenchmarkHarness:
    def test_open_loop_end_to_end(self, chars):
        config = RunConfig(
            sku_name="SKU2", warmup_seconds=0.2, measure_seconds=0.5
        )
        harness = BenchmarkHarness(config, chars)

        def handler(request: Request):
            yield from harness.burst(chars.instructions_per_request)

        result = harness.run_open_loop(handler, offered_rps=100.0)
        assert 50 < result.throughput_rps < 150
        assert 0 < result.cpu_util <= 1.0
        assert result.steady is not None
        assert result.latency["count"] > 10

    def test_burst_respects_kernel_fraction(self, chars):
        config = RunConfig(sku_name="SKU2", measure_seconds=0.5)
        harness = BenchmarkHarness(config, chars)

        def handler(request: Request):
            yield from harness.burst(1e8, kernel_frac=0.5)

        harness.run_open_loop(handler, offered_rps=50.0)
        stats = harness.scheduler.stats
        assert stats.kernel_seconds > 0

    @pytest.mark.parametrize(
        "batch,args",
        [(1, (3e8,)), (4, (2.5e7, 0.3)), (16, (1e6, None, 3)), (2, (0.0,))],
    )
    def test_burst_hands_execute_its_burst_args(
        self, chars, monkeypatch, batch, args
    ):
        """``burst`` passes ``execute`` exactly ``burst_args``' split:
        ``instructions / per_logical_ips * batch``, cut by the kernel
        fraction, with ``batch * dispatches_per_request`` dispatches."""
        harness = BenchmarkHarness(
            RunConfig(sku_name="SKU2"), chars, batch=batch
        )
        seen = []
        monkeypatch.setattr(
            CpuScheduler, "execute", lambda self, *a, **kw: seen.append((a, kw))
        )
        harness.burst(*args)
        instructions = args[0]
        kf = chars.kernel_frac if len(args) < 2 or args[1] is None else args[1]
        per_request = args[2] if len(args) > 2 else 1
        seconds = instructions / harness.server.per_logical_ips * batch
        expected = (seconds * (1.0 - kf), seconds * kf, batch * per_request)
        assert seen == [(expected, {})]
        assert harness.burst_args(*args) == expected

    def test_negative_instructions_rejected(self, chars):
        harness = BenchmarkHarness(RunConfig(sku_name="SKU2"), chars)
        for call in (harness.burst_args, harness.burst):
            with pytest.raises(ValueError, match="non-negative"):
                call(-1.0)
