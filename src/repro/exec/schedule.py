"""Cost-model-driven sweep scheduling: ledger and LPT order.

Spec-order dispatch lets a long point that happens to sit last in the
grid start only after every short point has drained, while the rest of
the pool idles.  This module orders a sweep by predicted cost instead:

* :class:`CostLedger` — a persistent sidecar (next to the run cache)
  of measured per-point wall times, keyed by run fingerprint with
  per-``(workload, duration, shards, faults)`` class aggregates.  A
  point the ledger has never seen is priced at its simulated seconds
  (:func:`seed_cost`), so a cold ledger keeps points with equal
  windows in spec order.
* :func:`order_lpt` — longest-predicted-first ordering of the pending
  work (classic LPT list scheduling).  Only *completion order* moves:
  results are keyed by fingerprint and merged back in spec order, so
  reports stay byte-identical to an in-process run.

Queue-aware stealing lives in :meth:`WarmPool.run_points
<repro.exec.workerpool.WarmPool.run_points>`: the pool keeps the
affinity tiers (exact point, then workload) as tiebreakers *within a
predicted-cost band* of the queue head, and an idle worker whose only
pending work is affinity-bound to a busy worker steals it rather than
idling (counted in ``steals``).
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import LEDGER_FILENAME, write_json_atomic
from repro.exec.spec import RunPoint, cost_class

#: Predictor signature used by the executor and warm pool:
#: ``(fingerprint, point) -> predicted wall seconds``.
Predictor = Callable[[str, RunPoint], float]

#: Affinity tiebreak band for cost-aware dispatch: a worker may prefer
#: an affine point over the queue head only while the affine point's
#: predicted cost is within this factor of the head's (taking a much
#: shorter point first would forfeit the LPT makespan bound).
AFFINITY_COST_BAND = 2.0

#: EWMA weight of the newest observation when a fingerprint recurs —
#: recent wall times reflect the current machine state best, but one
#: noisy run should not own the estimate.
_EWMA_ALPHA = 0.5

#: Prediction provenance markers (``predict_with_source``).
SOURCE_EXACT = "exact"
SOURCE_CLASS = "class"
SOURCE_SEED = "seed"


def seed_cost(point: RunPoint) -> float:
    """Cold-start estimate of one point's cost: its simulated seconds.

    Warmup plus measure, split evenly across a shard sub-point's
    siblings.  Wall time per simulated second differs between
    workloads and between a process's first and later runs of one, so
    no fixed rate table predicts it; the ledger learns it from the
    first sweep instead.
    """
    seconds = point.warmup_seconds + point.measure_seconds
    if point.shards > 1 and point.shard_index >= 0:
        seconds /= point.shards
    return seconds


def _class_key(point: RunPoint) -> str:
    """Flat JSON-safe form of :func:`repro.exec.spec.cost_class`."""
    workload, duration, shards, faults = cost_class(point)
    return f"{workload}|{duration:g}|{shards}|{faults or '-'}"


class CostLedger:
    """Persistent ledger of measured per-point wall times.

    Lives as a single JSON sidecar (:data:`~repro.exec.cache.
    LEDGER_FILENAME`) next to the run cache entries, surviving across
    invocations exactly like the cache does — and degrading exactly
    like it too: a corrupt file loads as empty, an unwritable
    directory turns ``save()`` into a warned no-op, and a ``None``
    directory keeps the ledger purely in-memory.  Losing cost history
    must never lose (or even slow) the sweep.
    """

    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory
        #: fingerprint -> {"seconds": EWMA wall time, "count": runs}
        self.by_fingerprint: Dict[str, Dict[str, float]] = {}
        #: class key -> {"total_s", "count", "max_s"} aggregates
        self.by_class: Dict[str, Dict[str, float]] = {}
        self._loaded = False
        self._dirty = False

    # -- persistence ----------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, LEDGER_FILENAME)

    @staticmethod
    def _parse(path: str) -> Tuple[Dict, Dict]:
        """Both ledger maps from one file; empty maps on any damage."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
            by_fp = dict(raw["by_fingerprint"])
            by_class = dict(raw["by_class"])
            for entry in list(by_fp.values()) + list(by_class.values()):
                if not isinstance(entry, dict):
                    raise ValueError("malformed ledger entry")
            return by_fp, by_class
        except (OSError, ValueError, KeyError, TypeError):
            return {}, {}

    def load(self) -> "CostLedger":
        """Read the sidecar once per instance (idempotent, graceful)."""
        if self._loaded or self.path is None:
            self._loaded = True
            return self
        self.by_fingerprint, self.by_class = self._parse(self.path)
        self._loaded = True
        return self

    def save(self) -> Optional[str]:
        """Atomically persist, merging with what is on disk now.

        Concurrent sweeps sharing one cache directory each merge their
        recordings over the current file contents before the rename,
        so the last writer extends — rather than erases — the others'
        history.  Failures warn once and disable persistence for this
        instance; the in-memory ledger keeps predicting.
        """
        if self.path is None or not self._dirty:
            return None
        disk_fp, disk_class = self._parse(self.path)
        # This instance's recordings win on collision: they are newer.
        disk_fp.update(self.by_fingerprint)
        disk_class.update(self.by_class)
        payload = {
            "version": 1,
            "by_fingerprint": disk_fp,
            "by_class": disk_class,
        }
        try:
            write_json_atomic(self.path, payload)
        except OSError as exc:
            warnings.warn(
                f"cost ledger write to {self.directory!r} failed ({exc}); "
                "runtime history will not persist for this process",
                RuntimeWarning,
                stacklevel=2,
            )
            self.directory = None  # stop retrying every sweep
            return None
        self._dirty = False
        return self.path

    def clear(self) -> bool:
        """Delete the sidecar and forget in-memory history."""
        self.by_fingerprint = {}
        self.by_class = {}
        self._dirty = False
        if self.path is None:
            return False
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    # -- recording ------------------------------------------------------------
    def record(self, fingerprint: str, point: RunPoint, seconds: float) -> None:
        """Fold one measured wall time into both ledger maps."""
        if seconds < 0:
            return
        self.load()
        entry = self.by_fingerprint.get(fingerprint)
        if entry is None:
            self.by_fingerprint[fingerprint] = {
                "seconds": seconds,
                "count": 1,
            }
        else:
            entry["seconds"] = (
                (1.0 - _EWMA_ALPHA) * float(entry["seconds"])
                + _EWMA_ALPHA * seconds
            )
            entry["count"] = int(entry["count"]) + 1
        key = _class_key(point)
        agg = self.by_class.get(key)
        if agg is None:
            self.by_class[key] = {
                "total_s": seconds,
                "count": 1,
                "max_s": seconds,
            }
        else:
            agg["total_s"] = float(agg["total_s"]) + seconds
            agg["count"] = int(agg["count"]) + 1
            agg["max_s"] = max(float(agg["max_s"]), seconds)
        self._dirty = True

    # -- prediction -----------------------------------------------------------
    def predict_with_source(
        self, point: RunPoint, fingerprint: Optional[str] = None
    ) -> Tuple[float, str]:
        """Predicted wall seconds plus where the number came from.

        Exact fingerprint history beats the class aggregate beats the
        point's simulated seconds — the same specificity ladder the
        warm pool's affinity tiers use.
        """
        self.load()
        if fingerprint is not None:
            entry = self.by_fingerprint.get(fingerprint)
            if entry is not None:
                return float(entry["seconds"]), SOURCE_EXACT
        agg = self.by_class.get(_class_key(point))
        if agg is not None and int(agg["count"]) > 0:
            return float(agg["total_s"]) / int(agg["count"]), SOURCE_CLASS
        return seed_cost(point), SOURCE_SEED

    def predict(
        self, point: RunPoint, fingerprint: Optional[str] = None
    ) -> float:
        return self.predict_with_source(point, fingerprint)[0]

    def entries(self) -> int:
        """Recorded fingerprints (the ledger's cardinality)."""
        self.load()
        return len(self.by_fingerprint)

    def workload_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-workload mean/max/count over the class aggregates."""
        self.load()
        out: Dict[str, Dict[str, float]] = {}
        for key, agg in self.by_class.items():
            workload = key.split("|", 1)[0]
            row = out.setdefault(
                workload, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            row["count"] += int(agg["count"])
            row["total_s"] += float(agg["total_s"])
            row["max_s"] = max(row["max_s"], float(agg["max_s"]))
        for row in out.values():
            row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
        return out


def order_lpt(
    todo: Sequence[Tuple[str, RunPoint]], predict: Predictor
) -> List[Tuple[str, RunPoint]]:
    """Pending work longest-predicted-first (stable on ties).

    Classic LPT list scheduling: handing out the biggest jobs first
    bounds the makespan at 4/3 of optimal for any greedy pool, where
    FIFO spec order can approach ``short_total/W + longest`` — the
    whole pool idling while one straggler that was scheduled last
    finishes.  Ties (and near-ties) keep spec order, so the ordering
    is deterministic for a fixed ledger snapshot.
    """
    indexed = list(enumerate(todo))
    indexed.sort(key=lambda item: (-predict(item[1][0], item[1][1]), item[0]))
    return [entry for _, entry in indexed]
