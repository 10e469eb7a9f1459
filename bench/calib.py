"""Host speed, from a fixed unit of pure-Python work.

The baseline machine is a shared virtual machine whose CPUs run up to
2x slower for seconds to an hour at a time while neighbours contend for
the hardware.  Process CPU time slows with wall time (the time is not
stolen, the instructions run slower; the VM has no hardware counters),
so neither clock can tell a slower program from a slower host.  The
benchmark therefore reads this unit at the ends of every timed stretch
(and, while a pool sweep leaves the bench process idle, every
:data:`SAMPLE_PERIOD_S` during it) and scales the stretch's time by

    (REFERENCE_S / mean reading) ** ELASTICITY

where :data:`REFERENCE_S` is the unit's time on the baseline host when
quiet: every reported time is in seconds of that quiet host.

The unit does the kind of work the simulator does (a heap of pending
events, dict counters, attribute reads and writes on small objects) over
a pool of objects larger than the per-core L2 cache, so that, like the
simulator, it slows both when a neighbour shares the core and when
neighbours fill the shared L3 cache and memory bus.  A cache-resident
unit tracked only the first: between two periods an hour apart it
left 7-12% of a 27-34% slowdown in the scaled times, where this one
left under 4%.

The simulator feels less of a slowdown than the unit does:
:data:`ELASTICITY` is the log-log slope of stretch time on unit time,
fitted on the baseline host (see ``bench/README.md``).  The unit does
not depend on the program, so any fixed exponent leaves a comparison of
two commits unbiased; the exponent only sets how much host noise is
taken out.  Editing the unit, :data:`REFERENCE_S` or :data:`ELASTICITY`
changes the unit of every time metric: measure the baseline again if you
do.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import List

#: CPU seconds of one :meth:`Calibration.read` unit on the baseline host
#: (Intel Xeon, 2 vCPUs, Python 3.11.7) in a quiet phase.
REFERENCE_S = 0.0027
#: How much of the unit's slowdown the simulator shares (see above).
ELASTICITY = 0.7
#: Unit runs per reading; the fastest counts.
RUNS = 3
#: Seconds between readings of a :class:`Sampler`.
SAMPLE_PERIOD_S = 0.5
#: Objects in the unit's pool: about 3.5 MB, against a 2 MB L2 cache.
POOL_SIZE = 1 << 16


class _Slot:
    __slots__ = ("weight", "mark")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.mark = 0


class Calibration:
    """The unit's object pool (built once, about 4.5 MB resident) and readings."""

    def __init__(self) -> None:
        weights = [k * 0.001 for k in range(1023)]
        self._pool = [_Slot(weights[i % 1023]) for i in range(POOL_SIZE)]

    def _unit(self) -> float:
        pool = self._pool
        mask = POOL_SIZE - 1
        heap: list = []
        counts: dict = {}
        x = 12345
        total = 0.0
        for i in range(3000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            slot = pool[x & mask]
            slot.mark ^= 1
            heapq.heappush(heap, (slot.weight, i, x))
            counts[x & 4095] = counts.get(x & 4095, 0) + 1
            if len(heap) > 48:
                _, _, key = heapq.heappop(heap)
                total += pool[(key * 7919) & mask].weight * 1.5 + counts[key & 4095]
        return total

    def read(self) -> float:
        """CPU seconds of the unit now: the fastest of :data:`RUNS` runs.

        Thread CPU time leaves out any wait for a CPU or the GIL, so a
        reading taken beside busy pool workers measures speed, not share.
        """
        best = float("inf")
        for _ in range(RUNS):
            start = time.thread_time()
            self._unit()
            best = min(best, time.thread_time() - start)
        return best


def normalize(seconds: float, *readings: float) -> float:
    """``seconds`` on the quiet baseline host, given readings taken over it."""
    mean = sum(readings) / len(readings)
    return seconds * (REFERENCE_S / mean) ** ELASTICITY


class Sampler:
    """Readings every :data:`SAMPLE_PERIOD_S`, from a thread.

    Only for stretches in which this process waits (a pool sweep): the
    readings take about 2% of one CPU from the workers.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.readings: List[float] = []
        self._calibration = calibration
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.readings.append(self._calibration.read())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
