"""Tests for the benchmark itself: ``PYTHONPATH=src python -m pytest bench``.

The repository's tier-1 suite (``tests/``) does not collect these; the
slower ones launch real bench children (about 1.5 minutes in all).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import calib, harness
from bench.__main__ import main
from bench.layers import LAYERS, MOVES, OTHER, layer_self_times
from bench.workloads import WORKLOADS, point_label

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return harness.load_benchmark()


def test_names_and_units_are_valid_and_unique(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_metric_counts_and_bounds(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_every_per_layer_metric_names_what_it_moves(spec):
    assert [m["name"] for m in spec["per_layer"]] == list(MOVES)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, moves in MOVES.items():
        assert moves, name
        for metric, workloads in moves:
            assert metric in e2e, (name, metric)
            assert workloads and set(workloads) <= set(WORKLOADS), (name, workloads)


def test_point_lists_match_benchmark_json_and_reference(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    with open(harness.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    assert reference["seed"] == harness.REFERENCE_SEED
    assert set(reference["workloads"]) == set(WORKLOADS)
    sizes = {"suite": 18, "suite-pool": 18, "llm-serving": 4, "faults-control": 6}
    for name, workload in WORKLOADS.items():
        labels = [point_label(p) for p in workload.points(harness.REFERENCE_SEED)]
        assert len(labels) == len(set(labels)) == sizes[name]
        assert set(labels) == set(reference["workloads"][name]), name
    assert reference["workloads"]["suite-pool"] == reference["workloads"]["suite"]


def test_verdicts():
    def s(median, iqr, samples):
        return {"median": median, "iqr": iqr, "samples": samples}

    a = s(10.0, 0.2, [9.9, 10.0, 10.1])
    assert harness.verdict(a, s(10.5, 0.2, [10.4, 10.5, 10.6]), "lower", 0.1) == "agree"
    assert harness.verdict(a, s(12.0, 0.2, [11.9, 12.0, 12.1]), "lower", 0.1) == "regressed"
    assert harness.verdict(a, s(8.0, 0.2, [7.9, 8.0, 8.1]), "higher", 0.1) == "regressed"
    wide = s(10.0, 3.0, [8.0, 10.0, 12.0])
    assert harness.verdict(a, wide, "lower", 0.1) == "unresolved"
    assert harness.verdict(wide, s(7.0, 3.0, [6.0, 7.0, 7.5]), "lower", 0.1) == "agree"


def test_normalize_scales_by_host_speed():
    quiet = calib.REFERENCE_S
    assert calib.normalize(2.0, quiet, quiet) == pytest.approx(2.0)
    # A host at half speed doubles the unit's time; the stretch is
    # scaled back by the share of that slowdown the simulator feels.
    slow = calib.normalize(2.0, 2 * quiet, 2 * quiet)
    assert slow == pytest.approx(2.0 * 0.5 ** calib.ELASTICITY)
    assert calib.normalize(2.0, quiet, 3 * quiet) == pytest.approx(slow)
    assert calib.Calibration().read() > 0


def test_profile_time_outside_repro_goes_to_its_callers(tmp_path):
    pkg = str(tmp_path / "repro")
    engine = (os.path.join(pkg, "sim", "engine.py"), 1, "run")
    llm = (os.path.join(pkg, "llm", "engine.py"), 1, "step")
    stdlib = ("/usr/lib/python3/heapq.py", 1, "push")
    builtin = ("~", 0, "<built-in method len>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    # pstats layout: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = {
        engine: (1, 1, 2.0, 10.0, {}),
        llm: (5, 5, 1.0, 3.0, {engine: (5, 5, 1.0, 3.0)}),
        stdlib: (4, 4, 1.0, 2.0, {engine: (3, 3, 0.75, 1.5), llm: (1, 1, 0.25, 0.5)}),
        builtin: (9, 9, 4.0, 4.0, {stdlib: (8, 8, 2.0, 2.0), llm: (1, 1, 2.0, 2.0)}),
        orphan: (1, 1, 0.5, 0.5, {}),
    }
    times = layer_self_times(stats, pkg)
    assert set(times) == set(LAYERS)
    # builtin: half via stdlib (3/4 engine, 1/4 llm), half straight from llm.
    assert times["sim.engine"] == pytest.approx(2.0 + 0.75 + 2.0 * 0.75)
    assert times["llm.engine"] == pytest.approx(1.0 + 0.25 + 2.0 * 0.25 + 2.0)
    assert times[OTHER] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(8.5)


def test_parent_dcperf_environment_never_reaches_a_child(monkeypatch):
    monkeypatch.setenv("DCPERF_SCHEDULE", "fifo")
    monkeypatch.setenv("DCPERF_CACHE_DIR", "/nonexistent")
    out = harness.launch("llm-serving", 7, "setup")
    assert out["env"] == ["DCPERF_CACHE_DIR"]


def test_one_corrupted_reference_digest_fails_one_point(tmp_path, monkeypatch):
    with open(harness.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    table = reference["workloads"]["llm-serving"]
    first = sorted(table)[0]
    table[first] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(harness, "REFERENCE_PATH", str(corrupted))
    out = tmp_path / "run.json"
    code = main(["run", "--quick", "--workload", "llm-serving", "--json", str(out)])
    assert code != 0
    result = json.loads(out.read_text())["workloads"]["llm-serving"]
    assert result["failed"] == 1
    assert result["failed_frac"] == pytest.approx(1 / len(table))
    assert any(first in error for error in result["errors"])


def test_quick_run_emits_every_end_to_end_metric(spec, tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--quick", "--seed", "13", "--json", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["correct"] and not result["reference_checked"]
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, w in result["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, (name, w["errors"])
        assert list(w["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        for summary in w["end_to_end"].values():
            assert summary["n"] >= 1 and summary["median"] > 0


def test_traced_measure_emits_every_per_layer_metric(spec):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "faults-control",
         "--seed", "13", "--seconds", "1", "--trace", "1"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["profile.coverage"]["value"] >= 0.95
    assert metrics["llm.engine.self_s"]["value"] == 0
    assert metrics["sim.engine.events"]["value"] > 0


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(harness.ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
