"""Tests for the counted resource."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Resource


class TestResource:
    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        granted = []

        def worker(i):
            req = resource.request()
            yield req
            granted.append((i, env.now))
            yield env.timeout(10.0)
            resource.release(req)

        for i in range(3):
            env.process(worker(i))
        env.run(until=5.0)
        assert len(granted) == 2
        assert resource.queue_length == 1

    def test_fifo_waiters(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def worker(i):
            req = resource.request()
            yield req
            order.append(i)
            yield env.timeout(1.0)
            resource.release(req)

        for i in range(4):
            env.process(worker(i))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_same_instant_requests_past_capacity(self, env):
        """Free slots are granted in request order, each with exactly
        the queue entry a granted waiter gets; the rest queue without
        scheduling anything until a release hands them a slot."""
        resource = Resource(env, capacity=2)
        requests, scheduled = [], []
        for _ in range(5):
            before = env._seq
            request = resource.request()
            requests.append(request)
            scheduled.append(env._seq - before)
            if request.triggered:
                assert env._fifo[-1] == (env.now, before, request)
        assert scheduled == [1, 1, 0, 0, 0]
        assert [r.triggered for r in requests] == [True] * 2 + [False] * 3
        assert resource.count == 2 and resource.queue_length == 3
        for granted in (2, 3, 4):
            before = env._seq
            resource.release(requests[granted - 2])
            assert requests[granted].triggered
            assert env._fifo[-1] == (env.now, before, requests[granted])
            assert env._seq == before + 1
        before = env._seq
        resource.release(requests[3])  # nobody waiting: schedules nothing
        assert env._seq == before and resource.count == 1

    def test_release_wrong_resource_raises(self, env):
        r1 = Resource(env)
        r2 = Resource(env)
        req = r1.request()
        env.run()
        with pytest.raises(ValueError):
            r2.release(req)

    def test_double_release_raises(self, env):
        resource = Resource(env)
        req = resource.request()
        env.run()
        resource.release(req)
        with pytest.raises(RuntimeError):
            resource.release(req)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    @given(capacity=st.integers(1, 8), jobs=st.integers(1, 40))
    def test_count_never_exceeds_capacity(self, capacity, jobs):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        peak = [0]

        def worker(duration):
            req = resource.request()
            yield req
            peak[0] = max(peak[0], resource.count)
            yield env.timeout(duration)
            resource.release(req)

        for i in range(jobs):
            env.process(worker(0.5 + (i % 3) * 0.25))
        env.run()
        assert peak[0] <= capacity
        assert resource.count == 0
        assert resource.queue_length == 0
