"""Persistent run cache: one JSON file per fingerprinted run.

The cache directory defaults to ``~/.cache/dcperf-repro`` and can be
redirected with ``DCPERF_CACHE_DIR`` (CI points it at a temp dir so
runs never leak between jobs).  ``DCPERF_CACHE=0`` disables caching
entirely.  Entries are keyed by
:func:`repro.exec.spec.run_fingerprint`, which digests the run point,
the calibrated model parameters, and the package source — so editing
any of them simply orphans the old entries rather than serving stale
results.  Writes are atomic (temp file + rename) so concurrent sweeps
sharing one directory cannot corrupt each other.  Every ``*.json`` file
in the directory counts as an entry: a file the running code can never
serve (an orphaned entry, a corrupt file, or the ``cost_ledger.json``
sidecar older versions wrote) is listed as stale and goes with
``clear(stale_only=True)``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exec.spec import RunPoint, run_fingerprint

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "DCPERF_CACHE_DIR"
#: Set to ``0`` to disable the persistent cache entirely.
CACHE_ENABLE_ENV = "DCPERF_CACHE"


def default_cache_dir() -> str:
    """Resolve the cache directory from the environment."""
    configured = os.environ.get(CACHE_DIR_ENV, "").strip()
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "dcperf-repro")


def write_json_atomic(path: str, payload: object) -> None:
    """Write ``payload`` as JSON to ``path`` via a temp file and a rename.

    Readers see the old file or the new one, never half of either.
    The temp file sits next to ``path`` (named ``.tmp-*``, which cache
    listings skip) and is removed on any failure, interrupts included.
    ``OSError`` propagates: :meth:`RunCache.put` degrades on it.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENABLE_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def cache_from_env() -> Optional["RunCache"]:
    """A cache honouring the environment, or ``None`` when disabled.

    Probes the configured directory up front: if it cannot be created
    or written (read-only volume, bad ``DCPERF_CACHE_DIR``), a warning
    is issued and caching is disabled for the process rather than
    blowing up mid-sweep.
    """
    if not cache_enabled():
        return None
    directory = default_cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        probe_ok = os.access(directory, os.W_OK)
    except OSError:
        probe_ok = False
    if not probe_ok:
        warnings.warn(
            f"run cache directory {directory!r} is not writable; "
            "persistent caching disabled (set DCPERF_CACHE_DIR to a "
            "writable path or DCPERF_CACHE=0 to silence this)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return RunCache(directory)


@dataclass(frozen=True)
class CacheInfo:
    """Summary of a cache directory's contents."""

    directory: str
    entries: int
    total_bytes: int
    #: Entries the running code can never serve (see
    #: :meth:`RunCache.is_stale`); the rest are current.
    stale: int

    @property
    def current(self) -> int:
        return self.entries - self.stale


class RunCache:
    """Filesystem-backed store of finished benchmark run payloads.

    Values are the lossless report dicts produced by
    :mod:`repro.exec.serialize`; the executor materializes
    :class:`~repro.core.benchmark.BenchmarkReport` objects from them.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Set after the first failed write: the cache degrades to a
        #: no-op (with one warning) instead of failing every sweep
        #: point on an unwritable directory.
        self.disabled = False

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.json")

    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored report payload, or ``None`` on miss/corruption."""
        if self.disabled:
            return None
        try:
            with open(self._path(fingerprint)) as fh:
                entry = json.load(fh)
            if entry.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            payload = entry["report"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        fingerprint: str,
        point: RunPoint,
        payload: Dict[str, object],
    ) -> Optional[str]:
        """Atomically persist one run payload; returns the path.

        On an I/O failure (directory vanished, volume went read-only,
        disk full) the cache disables itself with a warning and returns
        ``None`` — losing memoization must never lose the sweep.
        """
        if self.disabled:
            return None
        entry = {
            "fingerprint": fingerprint,
            "point": point.as_dict(),
            "created_unix": time.time(),
            "report": payload,
        }
        path = self._path(fingerprint)
        try:
            write_json_atomic(path, entry)
        except OSError as exc:
            self.disabled = True
            warnings.warn(
                f"run cache write to {self.directory!r} failed ({exc}); "
                "caching disabled for the rest of this process",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return path

    def _entry_paths(self):
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if name.endswith(".json") and not name.startswith(".tmp-"):
                yield os.path.join(self.directory, name)

    @staticmethod
    def is_stale(path: str) -> bool:
        """Whether the running code can never serve this entry file.

        An entry is current when it parses and its stored fingerprint
        is the one the running code gives its point.  The fingerprint
        digests the model parameters and the package source, so any
        edit to either orphans every older entry.
        """
        try:
            with open(path) as fh:
                entry = json.load(fh)
            point = RunPoint.from_dict(entry["point"])
        except (OSError, ValueError, TypeError, KeyError):
            return True
        return entry.get("fingerprint") != run_fingerprint(point)

    def info(self) -> CacheInfo:
        entries = 0
        total = 0
        stale = 0
        for path in self._entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
            entries += 1
            stale += self.is_stale(path)
        return CacheInfo(
            directory=self.directory,
            entries=entries,
            total_bytes=total,
            stale=stale,
        )

    def clear(self, stale_only: bool = False) -> int:
        """Delete cached runs; returns the number removed.

        With ``stale_only`` set, only stale entries go (see
        :meth:`is_stale`), corrupt files among them, and every entry
        the running code can serve stays warm.  A stale entry is never
        served; this reclaims the disk it occupies.
        """
        removed = 0
        for path in self._entry_paths():
            if stale_only and not self.is_stale(path):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        return removed
