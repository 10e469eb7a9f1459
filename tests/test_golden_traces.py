"""Golden-trace determinism suite.

Runs every named DCPerf workload (fault-free) plus every named fault
scenario through the in-process executor (normalized report codec,
shard merge) and asserts the canonical report JSON is byte-identical
to digests recorded *before* the sim-engine fast path landed.

These digests pin the simulator's observable behavior: any engine,
load-generator, or runner change that perturbs event ordering, RNG
draw order, or float arithmetic shows up here as a digest mismatch.
Early termination is disabled (``early_stop=False``) so the measured
window matches the pre-fast-path engine exactly, except in
``taobench+early_stop``, which pins a converged, stopped run.
``taobench+shards2`` pins a two-shard merge.

Regenerate (only when an *intentional* model/behavior change lands)::

    PYTHONPATH=src python -m tests.test_golden_traces --regen
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields

import pytest

from repro.exec.spec import RunPoint
from repro.llm.engine import LlmReplica
from repro.sim.engine import Environment
from repro.workloads import feedsim
from tests.conftest import run_point

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")

BENCHMARKS = [
    "mediawiki",
    "djangobench",
    "feedsim",
    "taobench",
    "sparkbench",
    "videotranscode",
    "storagebench",
    "llmbench-chat",
    "llmbench-codegen",
    "llmbench-long_reasoning",
]
FAULT_SCENARIOS = [
    "brownout",
    "blackout",
    "flaky_network",
    "noisy_neighbor",
    "disk_degraded",
    "brownout_degraded_disk",
    "flaky_network_compaction",
    "overload_shed",
]


def _make_point(benchmark: str, faults: str = "", **overrides) -> RunPoint:
    """A short, fully pinned run; early termination off when supported."""
    kwargs = dict(
        benchmark=benchmark,
        sku="SKU2",
        seed=11,
        measure_seconds=0.5,
        warmup_seconds=0.2,
        faults=faults,
    )
    if any(f.name == "early_stop" for f in fields(RunPoint)):
        kwargs["early_stop"] = False
    kwargs.update(overrides)
    return RunPoint(**kwargs)


def golden_points():
    """(case name, point) for every workload and fault scenario."""
    cases = [(name, _make_point(name)) for name in BENCHMARKS]
    cases += [
        (f"taobench+{scenario}", _make_point("taobench", faults=scenario))
        for scenario in FAULT_SCENARIOS
    ]
    # The device-channel fault against the device-backed workload: the
    # pair that pins compaction interference (stalls, iostat section).
    cases.append(
        (
            "storagebench+disk_degraded",
            _make_point("storagebench", faults="disk_degraded"),
        )
    )
    # The compound storage scenario against the device-backed workload:
    # pins admission control and stall-time SLO folding together.
    cases.append(
        (
            "storagebench+flaky_network_compaction",
            _make_point("storagebench", faults="flaky_network_compaction"),
        )
    )
    # The SLO control plane against the token-serving workload: pins
    # turn shedding plus the token-level TTFT/ITL SLO pass-through.
    cases.append(
        (
            "llmbench-chat+overload_shed",
            _make_point("llmbench-chat", faults="overload_shed"),
        )
    )
    # The two remaining fault-and-control pairs of the repo benchmark:
    # the LRU behind ``MemcachedServer``, hedged ``any_of`` races, and
    # ``all_of`` leaf fan-out under a deadline.
    cases.append(
        (
            "mediawiki+flaky_network",
            _make_point("mediawiki", faults="flaky_network"),
        )
    )
    cases.append(
        (
            "feedsim+noisy_neighbor",
            _make_point("feedsim", faults="noisy_neighbor"),
        )
    )
    # A converging run that stops early (at 0.34 simulated seconds of
    # 3.0): the only case where ``Environment.stop`` ends a run mid-way.
    cases.append(
        (
            "taobench+early_stop",
            _make_point("taobench", measure_seconds=3.0, early_stop=True),
        )
    )
    # The same run split over two shard environments and merged.
    cases.append(("taobench+shards2", _make_point("taobench", shards=2)))
    return cases


def report_digest(point: RunPoint) -> str:
    """SHA-256 over the canonical JSON of the point's report."""
    report = run_point(point)
    canon = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_goldens() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "case,point", golden_points(), ids=[c for c, _ in golden_points()]
)
def test_report_matches_golden_digest(case, point):
    goldens = _load_goldens()
    assert case in goldens, (
        f"no golden recorded for {case}; run "
        "`PYTHONPATH=src python -m tests.test_golden_traces --regen`"
    )
    digest = report_digest(point)
    assert digest == goldens[case]["digest"], (
        f"{case}: report diverged from the pre-fast-path golden trace "
        f"(got {digest}, want {goldens[case]['digest']}). The simulator's "
        "observable behavior changed — if intentional, regenerate the "
        "goldens; otherwise the fast path broke determinism."
    )


@pytest.fixture
def unmemoized():
    """Simulate feedsim's SLO search afresh, inside the test's patches,
    and leave no memo made under them behind."""
    feedsim._registry_operating_point.cache_clear()
    yield
    feedsim._registry_operating_point.cache_clear()


@pytest.mark.parametrize(
    "case,point", golden_points(), ids=[c for c, _ in golden_points()]
)
def test_queued_core_grants_match_golden_digest(
    case, point, monkeypatch, unmemoized
):
    """With every burst forced onto the queued core grant (the reference
    for the inline grant), the reports are still the goldens."""
    monkeypatch.setattr(Environment, "_grant_is_next", lambda self: False)
    assert report_digest(point) == _load_goldens()[case]["digest"]


@pytest.mark.parametrize(
    "case,point", golden_points(), ids=[c for c, _ in golden_points()]
)
def test_sleeps_as_timeouts_match_golden_digest(
    case, point, monkeypatch, unmemoized
):
    """With every sleep a ``Timeout`` event (the reference for a sleep
    that is its process's own heap entry), the reports are still the
    goldens."""
    monkeypatch.setattr(Environment, "sleep", Environment.timeout)
    assert report_digest(point) == _load_goldens()[case]["digest"]


@pytest.mark.parametrize(
    "case,point", golden_points(), ids=[c for c, _ in golden_points()]
)
def test_per_step_decode_matches_golden_digest(
    case, point, monkeypatch, unmemoized
):
    """With every LLM decode step on the general path (the reference
    for the uniform decode run), the reports are still the goldens."""
    monkeypatch.setattr(LlmReplica, "_uniform_steps", lambda self, now: 0)
    assert report_digest(point) == _load_goldens()[case]["digest"]


def test_goldens_cover_every_workload_and_scenario():
    goldens = _load_goldens()
    for case, _ in golden_points():
        assert case in goldens


def _regen() -> None:
    payload = {}
    for case, point in golden_points():
        digest = report_digest(point)
        payload[case] = {"digest": digest, "point": point.as_dict()}
        print(f"{case:28s} {digest}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
