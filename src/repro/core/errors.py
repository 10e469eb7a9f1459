"""Framework exception hierarchy."""

from __future__ import annotations


class DCPerfError(Exception):
    """Base class for all framework errors."""


class BenchmarkNotFoundError(DCPerfError):
    """Raised when a benchmark name cannot be resolved."""


class HookError(DCPerfError):
    """Raised when a hook fails during a benchmark run."""
