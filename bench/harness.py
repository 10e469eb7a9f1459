"""Parent side of the benchmark: launch children, aggregate, check, compare.

Every measurement runs in a fresh interpreter (:func:`launch`) whose
``DCPERF_*`` environment is cleared and whose run caches are new empty
directories under ``.bench_work/`` in the checkout.  The parent never
imports ``repro``; it only reads what the children print.

A repeat's points fail when the sweep raised, when the executor timed
a point out or recovered it in-process, when a cached re-serve ran
anything, or when a report's digest differs from the reference table
(at its seed), from the same point's cached report, from another pass
of the same child, from the first repeat, or (``suite-pool``) from the
same point run in-process.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Tuple

from bench.layers import MOVES, per_layer_metrics
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(ROOT, "bench", "reference.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")
#: Seed of the reference digest table.
REFERENCE_SEED = 7
#: No child may run longer than this (the slowest, a profiled
#: ``llm-serving`` sweep, takes about 30 s on 2 CPUs).
CHILD_TIMEOUT_S = 150
#: Set-up-only children ``measure`` launches before its passes child;
#: ``setup_s`` is the median over them and the passes child.
MEASURE_SETUPS = 2
#: Seconds ``measure`` leaves after the last pass for checks and exit.
MEASURE_TAIL_S = 2.0
#: Uncached passes per repeat child in ``run`` (``--quick``: 1).
RUN_PASSES = 3


class ChildError(RuntimeError):
    """A child exited non-zero, timed out, or printed no result."""


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as fh:
        return json.load(fh)


def load_reference(seed: int) -> Dict[str, Dict[str, str]]:
    """Reference digests per workload, or ``{}`` when they do not apply.

    Reports record the harness's Python version, so digests recorded
    under another version cannot match; the table is skipped then.
    """
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    if seed != table["seed"] or platform.python_version() != table["python"]:
        return {}
    return table["workloads"]


def launch(
    workload: str,
    seed: int,
    mode: str,
    repeat: int = 0,
    passes: int = 1,
    seconds: float = 0.0,
) -> dict:
    """Run one child to completion and return its JSON result.

    ``passes`` and ``seconds`` bound a ``passes`` child: it runs at most
    ``passes`` passes and starts none that would end ``seconds`` after
    it started (but always runs a few).
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK_DIR)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCPERF_")}
    env["DCPERF_CACHE_DIR"] = os.path.join(scratch, "cache")
    env["TMPDIR"] = scratch
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    spec = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "repeat": repeat,
        "passes": passes,
        "seconds": seconds,
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so pool workers die with it on timeout.
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildError(
                f"{workload} {mode} child ran past {CHILD_TIMEOUT_S}s"
            ) from None
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise ChildError(
            f"{workload} {mode} child exited {proc.returncode}:\n{tail}"
        )
    return json.loads(lines[-1])


def summarize(values: Iterable[float]) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles(n=4)``), IQR and n."""
    samples = list(values)
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(samples),
        "samples": samples,
    }


def check_repeat(
    out: dict, reference: Optional[Dict[str, str]], first: Optional[dict]
) -> Tuple[int, List[str]]:
    """Failed points and why, for one repeat (or spans) child."""
    labels = out["labels"]
    if "error" in out:
        return len(labels), [out["error"].strip().splitlines()[-1]]
    bad: Dict[str, str] = {}

    def expect(label: str, got: str, want: Optional[str], what: str) -> None:
        if got != want:
            bad.setdefault(label, what)

    for label in out.get("pass_mismatch", ()):
        expect(label, "", None, "differs between passes")
    for label in labels:
        digest = out["digests"][label]
        if reference is not None:
            expect(label, digest, reference.get(label), "differs from the reference digest")
        expect(label, out["cached_digests"][label], digest, "cached report differs from uncached")
        if first is not None:
            expect(label, digest, first["digests"][label], "differs from the first repeat")
    for label, digest in out.get("verify_digests", {}).items():
        expect(label, digest, out["digests"][label], "pool report differs from in-process")
    messages = [f"{label}: {what}" for label, what in bad.items()]
    # ``recovered`` counts timed-out points too: both were re-run in-process.
    recovered = out["recovered"]
    if recovered:
        messages.append(f"{recovered} point(s) timed out or were recovered in-process")
    executed = out.get("reserve_executed", 0)
    if executed:
        messages.append(f"cached re-serves executed {executed} point(s)")
    return min(len(labels), len(bad) + recovered + executed), messages


class WorkloadRun:
    """Repeats, set-ups, checks and the traced run of one workload."""

    def __init__(self, name: str, seed: int, reference: Optional[Dict[str, str]]):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.repeats: List[dict] = []
        self.setups: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.per_layer: Optional[Dict[str, float]] = None
        self.trace: Optional[dict] = None

    @property
    def ok_repeats(self) -> List[dict]:
        return [r for r in self.repeats if "error" not in r]

    def _account(self, out: dict) -> None:
        ok = self.ok_repeats
        failed, messages = check_repeat(out, self.reference, ok[0] if ok else None)
        self.attempted += len(out["labels"])
        self.failed += failed
        self.errors.extend(messages)

    def repeat(self, passes: int, seconds: float = 0.0) -> None:
        out = launch(self.name, self.seed, "passes", len(self.repeats), passes, seconds)
        self._account(out)
        self.repeats.append(out)
        self.setups.append(out["setup_s"])

    def setup_only(self) -> None:
        self.setups.append(launch(self.name, self.seed, "setup")["setup_s"])

    def traced(self) -> None:
        """One spans child and one profile child, after the timed repeats."""
        spans = launch(self.name, self.seed, "spans", len(self.repeats))
        self._account(spans)
        profile = launch(self.name, self.seed, "profile")
        ok = self.ok_repeats
        error = spans.get("error") or profile.get("error")
        if error or not ok:
            raise ChildError(
                f"{self.name}: traced run failed\n{error or 'no error-free base repeat'}"
            )
        base = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "busy_frac": statistics.median(r["busy_frac"] for r in ok),
            "point_s_p50": statistics.median(
                statistics.median(r["point_seconds"]) for r in ok
            ),
            "point_s_max": statistics.median(max(r["point_seconds"]) for r in ok),
        }
        self.per_layer = per_layer_metrics(base, spans, profile)
        self.trace = spans["trace"]

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        ok = self.ok_repeats
        if not ok:
            raise ChildError(f"{self.name}: no repeat finished without error")
        return {
            "wall_s": summarize(r["wall_s"] for r in ok),
            "cached_wall_s": summarize(r["cached_wall_s"] for r in ok),
            "setup_s": summarize(self.setups),
            "peak_rss_mb": summarize(r["rss_mb"] for r in ok),
        }


# -- measure: one workload, one JSON line ---------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The single-run form: the result line ``BENCHMARK.json``'s command prints.

    Untraced, it launches :data:`MEASURE_SETUPS` set-up-only children,
    then one passes child that runs uncached passes until the next would
    overrun ``seconds`` (at least three); its medians are the result,
    and ``setup_s`` is the median over every child's set-up.  Traced, it
    makes one single-pass repeat as the base, then the traced run.
    """
    spec = load_benchmark()
    run = WorkloadRun(name, seed, load_reference(seed).get(name))
    if trace:
        run.repeat(passes=1)
        run.traced()
        values = run.per_layer
        declared = spec["per_layer"]
    else:
        started = time.monotonic()
        for _ in range(MEASURE_SETUPS):
            run.setup_only()
        left = seconds - (time.monotonic() - started) - MEASURE_TAIL_S
        run.repeat(passes=1_000_000, seconds=left)
        values = {k: v["median"] for k, v in run.end_to_end().items()}
        declared = spec["end_to_end"]
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


# -- run: every workload, interleaved rounds ------------------------------------


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> Dict[str, object]:
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run(
    names: List[str],
    seed: int,
    rounds: int,
    traced: bool,
    trace_dir: Optional[str] = None,
    passes: int = RUN_PASSES,
) -> dict:
    """Rounds of interleaved repeats, then one traced run per workload.

    Each round launches, for every workload in turn, one set-up-only
    child and one repeat child of ``passes`` passes, so a noisy minute
    on a shared machine hits every workload instead of one.  One more
    set-up-only child per workload follows the last round (7 rounds: 15
    set-up samples).
    """
    reference = load_reference(seed)
    runs = [WorkloadRun(name, seed, reference.get(name)) for name in names]
    for _ in range(rounds):
        for w in runs:
            w.setup_only()
            w.repeat(passes)
    for w in runs:
        w.setup_only()
    if traced:
        for w in runs:
            w.traced()
    by_name = {w.name: w for w in runs}
    if "suite" in by_name and "suite-pool" in by_name:
        _cross_check(by_name["suite"], by_name["suite-pool"])
    if traced and trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        for w in runs:
            with open(os.path.join(trace_dir, f"{w.name}.trace.json"), "w") as fh:
                json.dump(w.trace, fh)
    result = {
        "seed": seed,
        "rounds": rounds,
        "reference_checked": bool(reference),
        "machine": machine(),
        "workloads": {},
    }
    for w in runs:
        result["workloads"][w.name] = {
            "attempted": w.attempted,
            "failed": w.failed,
            "failed_frac": w.failed / w.attempted,
            "errors": w.errors,
            "end_to_end": w.end_to_end(),
            "per_layer": w.per_layer,
        }
    result["correct"] = all(w.failed == 0 for w in runs)
    return result


def _cross_check(local: WorkloadRun, pool: WorkloadRun) -> None:
    """``suite-pool`` reports must equal ``suite`` reports byte for byte."""
    if not local.ok_repeats or not pool.ok_repeats:
        return
    want = local.ok_repeats[0]["digests"]
    got = pool.ok_repeats[0]["digests"]
    bad = [label for label in want if got.get(label) != want[label]]
    pool.failed += len(bad)
    pool.attempted += len(want)
    pool.errors.extend(f"{label}: differs from suite" for label in bad)


def format_run(result: dict) -> str:
    spec = load_benchmark()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [
        f"seed {result['seed']}, {result['rounds']} round(s), "
        f"reference digests {'checked' if result['reference_checked'] else 'not applicable'}, "
        f"python {result['machine']['python']}, nproc {result['machine']['nproc']}"
    ]
    for name, w in result["workloads"].items():
        lines.append("")
        lines.append(
            f"{name}: failed {w['failed']}/{w['attempted']} points "
            f"(failed_frac {w['failed_frac']:.4g})"
        )
        lines.append(f"  {'metric':<16}{'unit':<8}{'median':>12}{'IQR':>12}{'n':>4}")
        for metric, s in w["end_to_end"].items():
            lines.append(
                f"  {metric:<16}{units[metric]:<8}{s['median']:>12.5g}"
                f"{s['iqr']:>12.3g}{s['n']:>4}"
            )
        if w["per_layer"]:
            for metric in (m["name"] for m in spec["per_layer"]):
                moves = "; ".join(
                    f"{e2e} on {'/'.join(ws)}" for e2e, ws in MOVES[metric]
                )
                lines.append(
                    f"    {metric:<40}{w['per_layer'][metric]:>14.6g} "
                    f"{units[metric]:<9}-> {moves}"
                )
        for error in w["errors"]:
            lines.append(f"  FAILED {error}")
    lines.append("")
    lines.append("correct" if result["correct"] else "INCORRECT: see FAILED lines")
    return "\n".join(lines)


# -- compare --------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``agree``, ``regressed`` or ``unresolved`` for B against A.

    Where either side's IQR is wider than the bound, the pair is
    ``unresolved`` unless every B sample beats every A sample.
    """
    lower = better == "lower"
    spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if spread > bound:
        if lower:
            wins = max(b["samples"]) < min(a["samples"])
        else:
            wins = min(b["samples"]) > max(a["samples"])
        return "agree" if wins else "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if lower else -change
    return "regressed" if worse > bound else "agree"


def compare(a: dict, b: dict) -> Tuple[List[Tuple[str, str, str, str]], bool]:
    """Rows of (workload, metric, detail, verdict) and whether all agree."""
    spec = load_benchmark()
    rows = []
    for name in (n for n in a["workloads"] if n in b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            sa = wa["end_to_end"][m["name"]]
            sb = wb["end_to_end"][m["name"]]
            detail = (
                f"{sa['median']:.5g} -> {sb['median']:.5g} {m['unit']} "
                f"({(sb['median'] - sa['median']) / sa['median']:+.1%}, "
                f"IQR {sa['iqr'] / sa['median']:.1%}/{sb['iqr'] / sb['median']:.1%}, "
                f"bound {m['bound']:.0%})"
            )
            rows.append((name, m["name"], detail, verdict(sa, sb, m["better"], m["bound"])))
        failed = "regressed" if wb["failed_frac"] > wa["failed_frac"] else "agree"
        rows.append((
            name, "failed_frac",
            f"{wa['failed_frac']:.4g} -> {wb['failed_frac']:.4g}", failed,
        ))
    return rows, all(row[3] == "agree" for row in rows)


# -- reference table --------------------------------------------------------------


def write_reference() -> dict:
    """Record every point's digest at the reference seed.

    ``suite-pool`` must reproduce ``suite`` and every cached report its
    uncached one before anything is written.
    """
    table = {}
    for name in WORKLOADS:
        out = launch(name, REFERENCE_SEED, "passes")
        failed, messages = check_repeat(out, None, None)
        if failed:
            raise ChildError(f"{name}: " + "; ".join(messages))
        table[name] = out["digests"]
    if table["suite-pool"] != table["suite"]:
        raise ChildError("suite-pool digests differ from suite")
    payload = {
        "seed": REFERENCE_SEED,
        "python": platform.python_version(),
        "workloads": table,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
