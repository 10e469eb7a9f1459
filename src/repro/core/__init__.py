"""The DCPerf automation framework.

Mirrors the architecture of Figure 1: an automation layer with
``install`` / ``run`` commands (:mod:`repro.core.benchmark`,
:mod:`repro.core.cli`), result reporting with per-benchmark normalized
scores and a geometric-mean suite score (:mod:`repro.core.suite`,
:mod:`repro.core.scoring`, :mod:`repro.core.report`), and an extensible hook system for
performance monitoring (:mod:`repro.core.hooks`).
"""

from repro.core.benchmark import Benchmark, BenchmarkReport
from repro.core.errors import BenchmarkNotFoundError, DCPerfError, HookError
from repro.core.hooks import Hook, HookRegistry, RunContext, default_hooks
from repro.core.scoring import geometric_mean
from repro.core.suite import DCPerfSuite, SuiteReport

__all__ = [
    "Benchmark",
    "BenchmarkReport",
    "DCPerfError",
    "BenchmarkNotFoundError",
    "HookError",
    "Hook",
    "HookRegistry",
    "RunContext",
    "default_hooks",
    "geometric_mean",
    "DCPerfSuite",
    "SuiteReport",
]
