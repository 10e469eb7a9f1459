"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.core.benchmark import BenchmarkReport
from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint
from repro.hw.sku import get_sku
from repro.sim.engine import Environment
from repro.workloads.base import RunConfig


def run_point(point: RunPoint) -> BenchmarkReport:
    """One point in-process through the executor (codec round trip and
    shard merge included), without the run cache."""
    return SweepExecutor(max_workers=1, use_cache=False).run([point])[0]


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_cache():
    """Point the persistent run cache at a session-private temp dir.

    Keeps the test suite hermetic: runs neither read stale entries from
    nor leak entries into the developer's ``~/.cache/dcperf-repro``.
    Within the session the cache still works, which is what the
    executor tests exercise.
    """
    if os.environ.get("DCPERF_CACHE_DIR"):
        # CI already sandboxed the cache (tools/ci.sh); respect it.
        yield
        return
    with tempfile.TemporaryDirectory(prefix="dcperf-test-cache-") as tmp:
        os.environ["DCPERF_CACHE_DIR"] = tmp
        try:
            yield
        finally:
            os.environ.pop("DCPERF_CACHE_DIR", None)


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def sku1():
    return get_sku("SKU1")


@pytest.fixture
def sku2():
    return get_sku("SKU2")


@pytest.fixture
def sku4():
    return get_sku("SKU4")


@pytest.fixture
def quick_config() -> RunConfig:
    """A short measurement window for fast workload tests."""
    return RunConfig(
        sku_name="SKU2",
        kernel_version="6.9",
        seed=7,
        warmup_seconds=0.3,
        measure_seconds=0.8,
    )
