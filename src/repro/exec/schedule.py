"""Sweep scheduling: longest-first dispatch by simulated seconds.

Spec-order dispatch lets a long point that happens to sit last in the
grid start only after every short point has drained, while the rest of
the pool idles.  This module orders a sweep by cost instead:

* :func:`seed_cost` — a point's price: its simulated seconds.
* :func:`order_lpt` — longest-first ordering of the pending work
  (classic LPT list scheduling).  The sort is stable, so points with
  equal windows keep spec order.  Only *completion order* moves:
  results are keyed by fingerprint and merged back in spec order, so
  reports stay byte-identical to an in-process run.

Queue-aware stealing lives in :meth:`WarmPool.run_points
<repro.exec.workerpool.WarmPool.run_points>`: the pool keeps the
affinity tiers (exact point, then workload) as tiebreakers *within a
cost band* of the queue head, and an idle worker whose only pending
work is affinity-bound to a busy worker steals it rather than idling
(counted in ``steals``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exec.spec import RunPoint

#: Affinity tiebreak band for cost-aware dispatch: a worker may prefer
#: an affine point over the queue head only while the affine point's
#: cost is within this factor of the head's (taking a much shorter
#: point first would forfeit the LPT makespan bound).
AFFINITY_COST_BAND = 2.0


def seed_cost(point: RunPoint) -> float:
    """One point's cost: its simulated seconds.

    Warmup plus measure, split evenly across a shard sub-point's
    siblings.  Wall time per simulated second differs between
    workloads and between a process's first and later runs of one, so
    no fixed rate table predicts it; on the suite, ordering by
    recorded wall times did not beat this (EXPERIMENTS.md).
    """
    seconds = point.warmup_seconds + point.measure_seconds
    if point.shards > 1 and point.shard_index >= 0:
        seconds /= point.shards
    return seconds


def order_lpt(
    todo: Sequence[Tuple[str, RunPoint]],
) -> List[Tuple[str, RunPoint]]:
    """Pending work longest-first by :func:`seed_cost` (stable on ties).

    Classic LPT list scheduling: handing out the biggest jobs first
    bounds the makespan at 4/3 of optimal for any greedy pool, where
    spec order can approach ``short_total/W + longest`` — the whole
    pool idling while one straggler that was scheduled last finishes.
    """
    return sorted(todo, key=lambda entry: -seed_cost(entry[1]))
