"""Command line: ``python -m bench {run,measure,compare,reference}``.

Run from the checkout root; the children find ``repro`` under ``src/``
on their own, so no ``PYTHONPATH`` is needed.

    python -m bench run [--workload NAME] [--seed N] [--json OUT]
                        [--trace DIR] [--quick]
    python -m bench measure --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare A.json B.json
    python -m bench reference
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from bench import harness
from bench.workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time every workload; print medians, IQR, n")
    p_run.add_argument("--workload", choices=list(WORKLOADS), help="one workload (default: all)")
    p_run.add_argument("--seed", type=int, default=harness.REFERENCE_SEED)
    p_run.add_argument("--json", metavar="OUT", help="write the full result here")
    p_run.add_argument("--trace", metavar="DIR", help="write Chrome trace-event JSON per workload")
    p_run.add_argument(
        "--quick", action="store_true",
        help="one round of one pass, no traced run (same points; end-to-end metrics only)",
    )

    p_measure = sub.add_parser("measure", help="one workload; print one JSON result line")
    p_measure.add_argument("--workload", choices=list(WORKLOADS), required=True)
    p_measure.add_argument("--seed", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)

    p_compare = sub.add_parser("compare", help="apply BENCHMARK.json bounds to two run outputs")
    p_compare.add_argument("a", help="the parent's `run --json` output")
    p_compare.add_argument("b", help="the change's `run --json` output")

    sub.add_parser("reference", help="rewrite bench/reference.json at the reference seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "measure":
            result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        if args.command == "run":
            names = [args.workload] if args.workload else list(WORKLOADS)
            result = harness.run(
                names,
                args.seed,
                rounds=1 if args.quick else 7,
                traced=not args.quick,
                trace_dir=args.trace,
                passes=1 if args.quick else harness.RUN_PASSES,
            )
            print(harness.format_run(result))
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(result, fh, indent=2)
            return 0 if result["correct"] else 1
        if args.command == "compare":
            with open(args.a) as fa, open(args.b) as fb:
                rows, agree = harness.compare(json.load(fa), json.load(fb))
            for workload, metric, detail, verdict in rows:
                print(f"{workload:<16}{metric:<15}{verdict:<12}{detail}")
            return 0 if agree else 1
        payload = harness.write_reference()
        points = sum(len(d) for d in payload["workloads"].values())
        print(f"wrote {harness.REFERENCE_PATH}: {points} digests at seed {payload['seed']}")
        return 0
    except harness.ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
