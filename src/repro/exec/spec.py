"""Sweep grid specifications and content fingerprints.

A :class:`RunPoint` pins down everything that determines a benchmark
run's output: the workload (benchmark + variant), the simulated
machine (SKU, kernel), the load shape, and the measurement window.
Because runs are deterministic given those inputs, a fingerprint over
them — plus a digest of the model parameters and the package source —
is a safe cache key: two equal fingerprints imply byte-identical
reports, and any edit to the model or the simulator invalidates old
entries automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Dict

from repro.workloads.base import RunConfig

def shard_seed(seed: int, index: int) -> int:
    """Derive the seed for shard ``index`` of a run seeded ``seed``.

    The split is a documented multiply-add: ``seed * 1_000_003 +
    index + 1``.  The multiplier (a prime much larger than any shard
    count) keeps distinct run seeds from colliding across shard
    indices, and the ``+ 1`` keeps shard 0's seed distinct from the
    parent seed — every shard environment draws from RNG streams no
    unsharded run ever uses.  Being a pure function of ``(seed,
    index)``, a ``shards=N`` run replays byte-identically from just the
    parent point.
    """
    return seed * 1_000_003 + index + 1


@dataclass(frozen=True, order=True)
class RunPoint:
    """One point of a sweep grid: a fully specified benchmark run."""

    benchmark: str
    sku: str = "SKU2"
    kernel: str = "6.9"
    seed: int = 7
    variant: str = ""
    measure_seconds: float = 1.5
    warmup_seconds: float = 0.5
    load_scale: float = 1.0
    #: Named fault scenario ("" = fault-free).  Stored as the name so
    #: points stay hashable/serializable; resolved in :meth:`run_config`.
    faults: str = ""
    #: End the measurement window early once latency windows converge
    #: (deterministic; see ConvergenceMonitor).  Part of the cache key:
    #: early-stopped reports are not interchangeable with full-window
    #: ones.
    early_stop: bool = False
    #: Split this run across ``shards`` independent shard environments
    #: (offered rate divided N ways, per-shard seeds via
    #: :func:`shard_seed`); the executor merges the shard results into
    #: one report.  ``shards=1`` is the unsharded path, bit-identical
    #: to points built before this field existed.
    shards: int = 1
    #: Which shard this sub-point runs (``-1`` = the parent point).
    #: Sub-points are framed by :func:`repro.exec.shard.expand_shards`
    #: and carry their own fingerprints, so shard results cache
    #: independently of the merged parent report.
    shard_index: int = -1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not -1 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index {self.shard_index} out of range for "
                f"{self.shards} shard(s)"
            )

    @property
    def workload_name(self) -> str:
        """Registry name this point runs (benchmark + variant suffix)."""
        return f"{self.benchmark}{self.variant}"

    def run_config(self) -> RunConfig:
        seed = self.seed
        load_scale = self.load_scale
        if self.shards > 1 and self.shard_index >= 0:
            # One shard environment: its slice of the offered rate,
            # under a seed no unsharded run ever draws from.
            seed = shard_seed(self.seed, self.shard_index)
            load_scale = self.load_scale / self.shards
        config = RunConfig(
            sku_name=self.sku,
            kernel_version=self.kernel,
            seed=seed,
            warmup_seconds=self.warmup_seconds,
            measure_seconds=self.measure_seconds,
            load_scale=load_scale,
            early_stop=self.early_stop,
            shards=self.shards,
            shard_index=self.shard_index,
        )
        if self.faults:
            from repro.workloads.scenarios import apply_fault_scenario

            config = apply_fault_scenario(config, self.faults)
        return config

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunPoint":
        return cls(**payload)  # type: ignore[arg-type]


def _digest(payload: object) -> str:
    canon = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def model_fingerprint() -> str:
    """Digest of every calibrated model parameter a run depends on.

    Covers the SKU registry (hardware parameters), the kernel registry
    (scheduler parameters), and the workload characteristic profiles.
    Editing any of them changes the fingerprint, so cached runs made
    under the old parameters stop matching.
    """
    from repro.hw.sku import SKU_REGISTRY
    from repro.oskernel.kernel import _KERNELS
    from repro.workloads.profiles import (
        BENCHMARK_PROFILES,
        PRODUCTION_PROFILES,
        SPEC2017_PROFILES,
    )
    from repro.workloads.scenarios import FAULT_SCENARIOS

    payload = {
        "skus": {name: asdict(sku) for name, sku in SKU_REGISTRY.items()},
        "kernels": {v: asdict(k) for v, k in _KERNELS.items()},
        "profiles": {
            name: asdict(chars)
            for name, chars in {
                **BENCHMARK_PROFILES,
                **PRODUCTION_PROFILES,
                **SPEC2017_PROFILES,
            }.items()
        },
        "fault_scenarios": {
            name: scenario.as_dict()
            for name, scenario in FAULT_SCENARIOS.items()
        },
    }
    return _digest(payload)[:16]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the ``repro`` package source tree.

    The simulator's outputs depend on its code, not only on model
    parameters, so the cache must not survive source edits.  Hashing
    ~1 MB of source costs a few milliseconds once per process — far
    cheaper than one stale-cache debugging session.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info")
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_fingerprint(point: RunPoint) -> str:
    """Content key for one run: the point plus model + code digests."""
    payload = {
        "point": point.as_dict(),
        "model": model_fingerprint(),
        "code": code_fingerprint(),
    }
    return _digest(payload)[:32]

