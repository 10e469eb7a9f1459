"""Convergence monitor and early-termination semantics."""

import pytest

from repro.exec.spec import RunPoint
from repro.sim.engine import Environment
from repro.workloads.runner import ConvergenceMonitor, ThreadPool
from tests.conftest import run_point


class TestConvergenceMonitor:
    def test_converges_on_stable_latencies(self):
        env = Environment()
        monitor = ConvergenceMonitor(env, window=10, windows=3)
        needed = 10 * 3  # first moment every window is closed
        for _ in range(needed):
            monitor.on_complete(0.005)
        assert monitor.converged_at == env.now
        assert monitor.windows_closed == 3
        assert env._stopped

    def test_does_not_converge_on_trending_latencies(self):
        env = Environment()
        monitor = ConvergenceMonitor(env, window=10, windows=3)
        latency = 0.001
        for _ in range(500):
            monitor.on_complete(latency)
            latency *= 1.01  # 1% growth per request: never steady
        assert monitor.converged_at is None
        assert not env._stopped

    def test_errors_do_not_count_toward_windows(self):
        env = Environment()
        monitor = ConvergenceMonitor(env, window=10, windows=3)
        for _ in range(1000):
            monitor.on_complete(None)
        assert monitor.windows_closed == 0
        for _ in range(30):
            monitor.on_complete(0.002)
        assert monitor.converged_at is not None

    def test_window_boundary_is_completion_counted(self):
        env = Environment()
        monitor = ConvergenceMonitor(env, window=10, windows=3)
        for _ in range(29):
            monitor.on_complete(0.005)
        assert monitor.converged_at is None  # one short of the 3rd window
        monitor.on_complete(0.005)
        assert monitor.converged_at is not None

    def test_parameter_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            ConvergenceMonitor(env, window=0)
        with pytest.raises(ValueError):
            ConvergenceMonitor(env, windows=1)
        with pytest.raises(ValueError):
            ConvergenceMonitor(env, threshold=0.0)


class TestEarlyStopRuns:
    def test_early_stop_is_deterministic(self):
        point = RunPoint(
            benchmark="taobench",
            measure_seconds=3.0,
            warmup_seconds=0.3,
            early_stop=True,
        )
        first = run_point(point).as_dict()
        second = run_point(point).as_dict()
        assert first == second
        extra = first["result"]["extra"]
        assert extra["early_stopped"] == 1.0
        assert 0.0 < extra["measured_seconds"] < 3.0

    def test_early_stop_metric_close_to_full_window(self):
        full = run_point(
            RunPoint(benchmark="taobench", measure_seconds=3.0,
                     warmup_seconds=0.3)
        )
        fast = run_point(
            RunPoint(benchmark="taobench", measure_seconds=3.0,
                     warmup_seconds=0.3, early_stop=True)
        )
        assert fast.metric_value == pytest.approx(
            full.metric_value, rel=0.05
        )

    def test_disabled_early_stop_adds_no_extra_keys(self):
        report = run_point(
            RunPoint(benchmark="taobench", measure_seconds=0.5,
                     warmup_seconds=0.2, early_stop=False)
        )
        extra = report.as_dict()["result"]["extra"]
        assert "early_stopped" not in extra
        assert "measured_seconds" not in extra

    def test_fault_runs_never_stop_early(self):
        report = run_point(
            RunPoint(benchmark="taobench", measure_seconds=0.5,
                     warmup_seconds=0.2, faults="brownout",
                     early_stop=True)
        )
        extra = report.as_dict()["result"]["extra"]
        # The monitor is skipped entirely under fault injection.
        assert "early_stopped" not in extra

    def test_early_stop_changes_cache_fingerprint(self):
        from repro.exec.spec import run_fingerprint

        base = RunPoint(benchmark="taobench")
        fast = RunPoint(benchmark="taobench", early_stop=True)
        assert run_fingerprint(base) != run_fingerprint(fast)


class TestDockThreadPool:
    def test_fifo_completion_and_queue_depth(self):
        env = Environment()
        pool = ThreadPool(env, "p", num_threads=2)
        order = []

        def work(tag, delay):
            def item():
                yield env.sleep(delay)
                order.append(tag)
            return item

        def driver():
            events = [
                pool.submit(work("a", 0.3)),
                pool.submit(work("b", 0.1)),
                pool.submit(work("c", 0.1)),
            ]
            # Two workers busy, one item backlogged.
            assert pool.queue_depth == 1
            for ev in events:
                if not ev.processed:
                    yield ev

        env.process(driver())
        env.run()
        assert sorted(order) == ["a", "b", "c"]
        assert pool.completed == 3
        assert pool.queue_depth == 0

    def test_worker_error_propagates_to_waiter(self):
        env = Environment()
        pool = ThreadPool(env, "p", num_threads=1)
        caught = []

        def bad():
            yield env.sleep(0.01)
            raise RuntimeError("boom")

        def driver():
            try:
                yield pool.submit(bad)
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(driver())
        env.run()
        assert caught == ["boom"]
        # The worker survives a failed item and keeps serving.
        done = []

        def good():
            yield env.sleep(0.01)
            done.append(True)

        def driver2():
            yield pool.submit(good)

        env.process(driver2())
        env.run()
        assert done == [True]

    def test_idle_handoff_reuses_workers(self):
        env = Environment()
        pool = ThreadPool(env, "p", num_threads=4)

        def item():
            yield env.sleep(0.001)

        def driver():
            for _ in range(100):
                yield pool.submit(item)

        env.process(driver())
        env.run()
        assert pool.completed == 100
        # Sequential submits always find an idle worker: nothing ever
        # sat in the backlog.
        assert pool.queue_depth == 0
