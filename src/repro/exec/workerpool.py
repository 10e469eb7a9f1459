"""Warm worker pool: persistent, fingerprint-keyed sweep workers.

A process-global pool of persistent workers (:class:`WarmPool`) stays
alive across sweeps — the ModelOps warm-isolated-subprocess-pool
shape — so repeated sweeps reuse already-warm processes instead of
paying process startup plus every workload's per-process warm-setup
again:

* **Keyed workers** — each worker is tagged with the model/code
  fingerprint it was spawned under (:func:`repro.exec.spec.pool_key`).
  When the source tree or calibrated parameters change, the key
  changes and stale workers self-retire on the next acquire, exactly
  mirroring the run cache's self-invalidation.
* **Pipe transport** — workers encode each finished report with the
  compact binary codec (:func:`repro.exec.serialize.dict_to_bytes`)
  and send the bytes back over their worker pipe; a whole suite sweep
  ships a few KB per report.
* **Cost-band dispatch with affinity** — warm-setup memos (generated
  datasets, validation results, pre-warmed cache sets) live per
  process, so a worker prefers a pending point it has run before
  (exact point, then workload), but only within a predicted-cost band
  of the queue head; past that band it steals the head rather than
  idle.  With equal predicted costs this is the plain affinity-first
  scan, so repeat sweeps land on already-warm processes even when
  spec order changes.
* **Streaming completions** — results surface through an ``on_result``
  callback as each point finishes, so callers can persist per point
  and render long sweeps incrementally.
* **Per-worker fault recovery** — a crashed worker (pipe EOF) or a
  straggler past the per-point deadline is killed and respawned
  *individually*; the rest of the pool keeps draining the sweep, and
  no straggler outlives its deadline.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.schedule import AFFINITY_COST_BAND
from repro.exec.serialize import dict_from_bytes, dict_to_bytes
from repro.exec.spec import RunPoint, pool_key

#: Test seam shared with the in-process path: a per-point sleep that
#: (unlike a monkeypatch) can be carried into pool workers.
FAULT_DELAY_ENV = "DCPERF_FAULT_POINT_DELAY"

_MSG_RUN = "run"
_MSG_STOP = "stop"
_MSG_OK = "ok"
_MSG_ERR = "err"


def _affinity_key(point: RunPoint) -> Tuple[str, int, int]:
    """Exact-affinity identity of a point for dispatch purposes."""
    return (point.workload_name, point.seed, point.shard_index)


# -- worker process ------------------------------------------------------------


def _encode_exc(exc: BaseException) -> Tuple[str, bytes]:
    try:
        return "pickle", pickle.dumps(exc)
    except Exception:
        import traceback

        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return "str", detail.encode("utf-8", "replace")


def _decode_exc(encoded: Tuple[str, bytes]) -> BaseException:
    kind, body = encoded
    if kind == "pickle":
        try:
            exc = pickle.loads(body)
            if isinstance(exc, BaseException):
                return exc
        except Exception:
            pass
        body = repr(body).encode("utf-8")
    return RuntimeError(
        "warm pool worker raised:\n" + body.decode("utf-8", "replace")
    )


def _worker_main(conn) -> None:
    """Persistent worker loop: point dicts in, binary reports out.

    Top level (picklable) so the pool works under any multiprocessing
    start method.  The heavy imports happen once, here — that is the
    whole point of keeping the process warm.
    """
    from repro.exec.executor import _run_point_payload

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if message[0] == _MSG_STOP:
                break
            _, task_id, point_payload, delay = message
            try:
                # Mirror the parent's test-delay seam into this process
                # per task: a warm worker may have been spawned before
                # (or after) the parent set the variable.
                if delay:
                    os.environ[FAULT_DELAY_ENV] = delay
                else:
                    os.environ.pop(FAULT_DELAY_ENV, None)
                payload = _run_point_payload(RunPoint.from_dict(point_payload))
                data = dict_to_bytes(payload)
            except BaseException as exc:
                conn.send((_MSG_ERR, task_id, _encode_exc(exc)))
                continue
            conn.send((_MSG_OK, task_id, data))
    finally:
        conn.close()


# -- parent-side pool ----------------------------------------------------------


@dataclass
class PoolRunStats:
    """Accounting for one :meth:`WarmPool.run_points` call."""

    workers: int = 0
    spawned: int = 0
    reused: int = 0
    respawned: int = 0
    bytes_shipped: int = 0
    #: Points taken by a worker with no affinity to them while some
    #: busy worker *was* affine — queue-aware stealing beat idling.
    steals: int = 0

    def merge_into(self, other: "PoolRunStats") -> None:
        other.workers = max(other.workers, self.workers)
        other.spawned += self.spawned
        other.reused += self.reused
        other.respawned += self.respawned
        other.bytes_shipped += self.bytes_shipped
        other.steals += self.steals


class _Worker:
    """One persistent worker process plus its pipe."""

    def __init__(self, key: str, ctx) -> None:
        self.key = key
        #: Workloads this process has already run — its per-process
        #: warm-setup memos (datasets, validation results, warm cache
        #: sets) make repeats much cheaper, so dispatch prefers them.
        self.seen: set = set()
        #: Exact ``(workload, seed, shard_index)`` triples this process
        #: has run.  Warm-setup memos key on the RNG entry state, which
        #: depends on the (derived) seed — so for sharded reruns the
        #: same shard should land on the same worker, not just the same
        #: workload.
        self.seen_exact: set = set()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name="dcperf-warm-worker",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.is_alive()

    def _release(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self, grace_s: float = 1.0) -> None:
        """Cooperative shutdown; escalates to kill after ``grace_s``."""
        try:
            self.conn.send((_MSG_STOP,))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=grace_s)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=grace_s)
        self._release()

    def kill(self) -> None:
        """Immediate SIGKILL — for stragglers and crashed workers."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=1.0)
        self._release()


class WarmPool:
    """A keyed pool of persistent workers, reused across sweeps.

    One pool instance normally serves the whole process (see
    :func:`get_warm_pool`); ``SweepExecutor`` acquires workers from it
    per sweep, as many as the sweep's worker count asks for.
    """

    def __init__(self) -> None:
        self._ctx = get_context()
        self._workers: List[_Worker] = []
        self._task_seq = 0
        self.closed = False
        #: Lifetime totals across every ``run_points`` call.
        self.stats = PoolRunStats()

    # -- lifecycle ------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        return [w.pid for w in self._workers if w.pid is not None]

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.alive())

    def close(self) -> None:
        """Stop every worker and close their pipes."""
        for worker in self._workers:
            worker.stop()
        self._workers = []
        self.closed = True

    def _spawn(self, key: str) -> _Worker:
        return _Worker(key, self._ctx)

    def _respawn(self, worker: _Worker, run: PoolRunStats) -> _Worker:
        """Kill one worker and replace it in place with a fresh one."""
        worker.kill()
        replacement = self._spawn(worker.key)
        self._workers[self._workers.index(worker)] = replacement
        run.respawned += 1
        return replacement

    def _ensure(self, key: str, count: int, run: PoolRunStats) -> List[_Worker]:
        """``count`` live workers keyed ``key``; stale ones self-retire."""
        if self.closed:
            raise RuntimeError("WarmPool is closed")
        keep: List[_Worker] = []
        for worker in self._workers:
            if worker.key == key and worker.alive():
                keep.append(worker)
            else:
                # Stale fingerprint or dead process: retire it.
                worker.stop(grace_s=0.2)
        run.reused += min(len(keep), count)
        while len(keep) < count:
            keep.append(self._spawn(key))
            run.spawned += 1
        self._workers = keep
        run.workers = max(run.workers, count)
        return keep[:count]

    # -- execution ------------------------------------------------------------
    def run_points(
        self,
        todo: Sequence[Tuple[str, RunPoint]],
        workers: int,
        key: Optional[str] = None,
        timeout_s: Optional[float] = None,
        on_result: Optional[
            Callable[[str, RunPoint, Dict[str, object]], None]
        ] = None,
        predict: Optional[Callable[[str, RunPoint], float]] = None,
        on_timing: Optional[Callable[[str, RunPoint, float], None]] = None,
    ) -> Tuple[
        Dict[str, Dict[str, object]],
        List[Tuple[str, RunPoint]],
        int,
        PoolRunStats,
    ]:
        """Drain ``todo`` over the pool, streaming completions.

        Returns ``(completed payloads, lost points, timeout count,
        per-call stats)``.  Lost points are those whose worker crashed
        or blew the per-point deadline — in both cases that one worker
        is killed and respawned while the rest keep working; the caller
        re-runs lost points in-process.  Application-level exceptions
        propagate (they would fail in-process too); the pool stays
        coherent afterwards because mid-task workers are respawned
        before the exception leaves this frame.

        Dispatch is cost-aware: ``todo`` is assumed to arrive
        longest-predicted-first (:func:`repro.exec.schedule.order_lpt`)
        and ``predict`` (``(fingerprint, point) -> seconds``) prices
        each point.  A worker prefers a point it has run before (exact
        point, then workload) only *within a predicted-cost band* of
        the queue head — it never defers the head for something far
        smaller.  When the head is another busy worker's affine point,
        the idle worker steals it instead of idling (counted in
        ``steals``).  Without ``predict`` every point costs the same,
        so the band holds the whole queue and dispatch is the plain
        affinity-first scan.  Either way results are keyed by
        fingerprint, so completion order never changes the merged
        output.

        ``on_timing`` observes ``(fingerprint, point, wall seconds)``
        per completed point — the feed for the runtime cost ledger.
        """
        run = PoolRunStats()
        completed: Dict[str, Dict[str, object]] = {}
        lost: List[Tuple[str, RunPoint]] = []
        timeouts = 0
        if not todo:
            return completed, lost, timeouts, run
        pool_workers = self._ensure(
            key or pool_key(), max(1, min(workers, len(todo))), run
        )
        pending = deque(todo)
        delay = os.environ.get(FAULT_DELAY_ENV, "")
        costs: Dict[str, float] = {
            fp: predict(fp, point) if predict is not None else 0.0
            for fp, point in todo
        }
        # worker -> (task_id, fingerprint, point, deadline, started)
        inflight: Dict[
            _Worker, Tuple[int, str, RunPoint, Optional[float], float]
        ] = {}

        def take(worker: _Worker) -> Tuple[str, RunPoint]:
            """Affinity within the head's predicted-cost band, stealing
            over idling past it — a worker never idles while work is
            pending."""
            floor = costs[pending[0][0]] / AFFINITY_COST_BAND
            exact_index = None
            workload_index = None
            for index, (fp, point) in enumerate(pending):
                if costs[fp] < floor:
                    # Too small to justify deferring the head: taking
                    # it first would forfeit the LPT makespan bound.
                    continue
                if _affinity_key(point) in worker.seen_exact:
                    exact_index = index
                    break
                if (
                    workload_index is None
                    and point.workload_name in worker.seen
                ):
                    workload_index = index
            index = exact_index if exact_index is not None else workload_index
            if index is not None:
                fp, point = pending[index]
                del pending[index]
                return fp, point
            # No affine work in the band.  Take the head even when it
            # is another (busy) worker's affine point: the thief pays
            # that workload's warm-setup once, the sweep keeps all its
            # workers busy — stealing beats idling.
            fp, point = pending.popleft()
            if point.workload_name not in worker.seen and any(
                point.workload_name in other.seen for other in inflight
            ):
                run.steals += 1
            return fp, point

        def dispatch(worker: _Worker) -> None:
            while pending:
                fp, point = take(worker)
                self._task_seq += 1
                task_id = self._task_seq
                try:
                    worker.conn.send((_MSG_RUN, task_id, point.as_dict(), delay))
                except (BrokenPipeError, OSError):
                    pending.appendleft((fp, point))
                    worker = self._respawn(worker, run)
                    continue
                worker.seen.add(point.workload_name)
                worker.seen_exact.add(_affinity_key(point))
                now = time.monotonic()
                deadline = now + timeout_s if timeout_s is not None else None
                inflight[worker] = (task_id, fp, point, deadline, now)
                return

        for worker in pool_workers:
            dispatch(worker)

        try:
            while inflight:
                now = time.monotonic()
                deadlines = [
                    entry[3] for entry in inflight.values() if entry[3] is not None
                ]
                wait_s = (
                    max(0.0, min(deadlines) - now) if deadlines else None
                )
                ready = mp_connection.wait(
                    [w.conn for w in inflight], timeout=wait_s
                )
                if not ready:
                    # Deadline expired with nothing to read: kill and
                    # respawn exactly the workers past their deadline.
                    now = time.monotonic()
                    stragglers = [
                        w
                        for w, entry in inflight.items()
                        if entry[3] is not None and entry[3] <= now
                    ]
                    for worker in stragglers:
                        _, fp, point, _, _ = inflight.pop(worker)
                        timeouts += 1
                        lost.append((fp, point))
                        dispatch(self._respawn(worker, run))
                    continue
                by_conn = {w.conn: w for w in inflight}
                for conn in ready:
                    worker = by_conn[conn]
                    task_id, fp, point, _, started_at = inflight[worker]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Worker crashed mid-task (OOM-kill, segfault):
                        # only this worker is replaced.
                        inflight.pop(worker)
                        lost.append((fp, point))
                        dispatch(self._respawn(worker, run))
                        continue
                    kind = message[0]
                    if kind == _MSG_ERR:
                        inflight.pop(worker)
                        raise _decode_exc(message[2])
                    _, done_id, data = message
                    if done_id != task_id:
                        # Stale completion from an abandoned task.
                        continue
                    run.bytes_shipped += len(data)
                    inflight.pop(worker)
                    payload = dict_from_bytes(data)
                    completed[fp] = payload
                    if on_timing is not None:
                        on_timing(
                            fp, point, time.monotonic() - started_at
                        )
                    if on_result is not None:
                        on_result(fp, point, payload)
                    dispatch(worker)
        except BaseException:
            # Leave no worker mid-task: the next run_points call must
            # start from an idle pool with empty pipes.
            for worker in list(inflight):
                self._respawn(worker, run)
            raise
        finally:
            run.merge_into(self.stats)

        # Only reachable with points undone if every dispatch attempt
        # failed (e.g. workers dying faster than they respawn).
        lost.extend(pending)
        return completed, lost, timeouts, run


# -- process-global pool -------------------------------------------------------

_global_pool: Optional[WarmPool] = None


def get_warm_pool() -> WarmPool:
    """The process-global pool, created (and atexit-hooked) on demand."""
    global _global_pool
    if _global_pool is None or _global_pool.closed:
        _global_pool = WarmPool()
    return _global_pool


def shutdown_warm_pool() -> None:
    """Close the global pool (idempotent; also runs atexit)."""
    global _global_pool
    if _global_pool is not None:
        _global_pool.close()
        _global_pool = None


atexit.register(shutdown_warm_pool)
