"""Warm worker pool: persistent sweep workers with workload affinity.

A process-global pool of persistent workers (:class:`WarmPool`) stays
alive across sweeps — the ModelOps warm-isolated-subprocess-pool
shape — so repeated sweeps reuse already-warm processes instead of
paying process startup plus every workload's per-process warm-setup
again:

* **Pipe transport** — workers pickle each finished report payload
  (:func:`repro.exec.serialize.dict_to_bytes`) and send the bytes back
  over their worker pipe, a few KB per report; the parent decodes them
  with :func:`~repro.exec.serialize.dict_from_bytes`.
* **Workload affinity** — warm-setup memos (generated datasets,
  validation results, pre-warmed cache sets) live per process, so an
  idle worker takes the first pending point of a workload it has run,
  else the queue head; repeat sweeps land on already-warm processes
  even when spec order changes.
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

from repro.exec.executor import FAULT_DELAY_ENV, _run_point_payload
from repro.exec.serialize import dict_from_bytes, dict_to_bytes
from repro.exec.spec import RunPoint

_MSG_RUN = "run"
_MSG_STOP = "stop"
_MSG_OK = "ok"
_MSG_ERR = "err"


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
    """Persistent worker loop: point dicts in, pickled payloads out.

    Top level (picklable) so the pool works under any multiprocessing
    start method.  The heavy imports happen once per process, on the
    first point — that is the whole point of keeping the process warm.
    """
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


class _Worker:
    """One persistent worker process plus its pipe."""

    def __init__(self, ctx) -> None:
        #: Workloads this process has already run — its per-process
        #: warm-setup memos (datasets, validation results, warm cache
        #: sets) make repeats much cheaper, so dispatch prefers them.
        self.seen: set = set()
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

    def stop(self) -> None:
        """Cooperative shutdown; escalates to kill after a second."""
        try:
            self.conn.send((_MSG_STOP,))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=1.0)
        self._release()

    def kill(self) -> None:
        """Immediate SIGKILL — for stragglers and crashed workers."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=1.0)
        self._release()


class WarmPool:
    """A pool of persistent workers, reused across sweeps.

    One pool instance normally serves the whole process (see
    :func:`get_warm_pool`); ``SweepExecutor`` acquires workers from it
    per sweep, as many as the sweep's worker count asks for.
    """

    def __init__(self) -> None:
        self._ctx = get_context()
        self._workers: List[_Worker] = []
        self._task_seq = 0
        self.closed = False

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

    def _respawn(self, worker: _Worker, run: PoolRunStats) -> _Worker:
        """Kill one worker and replace it in place with a fresh one."""
        worker.kill()
        replacement = _Worker(self._ctx)
        self._workers[self._workers.index(worker)] = replacement
        run.respawned += 1
        return replacement

    def _ensure(self, count: int, run: PoolRunStats) -> List[_Worker]:
        """``count`` live workers; dead ones retire."""
        if self.closed:
            raise RuntimeError("WarmPool is closed")
        keep: List[_Worker] = []
        for worker in self._workers:
            if worker.alive():
                keep.append(worker)
            else:
                worker.kill()
        run.reused += min(len(keep), count)
        while len(keep) < count:
            keep.append(_Worker(self._ctx))
            run.spawned += 1
        self._workers = keep
        run.workers = max(run.workers, count)
        return keep[:count]

    # -- execution ------------------------------------------------------------
    def run_points(
        self,
        todo: Sequence[Tuple[str, RunPoint]],
        workers: int,
        timeout_s: Optional[float] = None,
        on_result: Optional[
            Callable[[str, RunPoint, Dict[str, object]], None]
        ] = None,
        on_timing: Optional[Callable[[str, float], None]] = None,
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

        Dispatch follows ``todo``'s order with workload affinity: an
        idle worker takes the first pending point of a workload it has
        run, else the queue head.  When that head's workload is one a
        busy worker has run, the idle worker steals it instead of
        idling (counted in ``steals``).  Results are keyed by
        fingerprint, so completion order never changes the merged
        output.

        ``on_timing`` observes ``(fingerprint, wall seconds)`` per
        completed point.
        """
        run = PoolRunStats()
        completed: Dict[str, Dict[str, object]] = {}
        lost: List[Tuple[str, RunPoint]] = []
        timeouts = 0
        if not todo:
            return completed, lost, timeouts, run
        pool_workers = self._ensure(max(1, min(workers, len(todo))), run)
        pending = deque(todo)
        delay = os.environ.get(FAULT_DELAY_ENV, "")
        # worker -> (task_id, fingerprint, point, deadline, started)
        inflight: Dict[
            _Worker, Tuple[int, str, RunPoint, Optional[float], float]
        ] = {}

        def take(worker: _Worker) -> Tuple[str, RunPoint]:
            """Affinity first, stealing over idling: a worker never
            idles while work is pending."""
            for index, (fp, point) in enumerate(pending):
                if point.workload_name in worker.seen:
                    del pending[index]
                    return fp, point
            # No affine work.  Take the head even when it is another
            # (busy) worker's affine point: the thief pays that
            # workload's warm-setup once, the sweep keeps all its
            # workers busy — stealing beats idling.
            fp, point = pending.popleft()
            if any(point.workload_name in other.seen for other in inflight):
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
                        on_timing(fp, time.monotonic() - started_at)
                    if on_result is not None:
                        on_result(fp, point, payload)
                    dispatch(worker)
        except BaseException:
            # Leave no worker mid-task: the next run_points call must
            # start from an idle pool with empty pipes.
            for worker in list(inflight):
                self._respawn(worker, run)
            raise

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
