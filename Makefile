PYTHON ?= python

.PHONY: test verify bench profile report clean-cache

# Fast path: just the unit suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Tier-1 gate: unit suite + the benchmark's own tests + smoke sweeps
# and replay checks, with the run cache isolated in a temp directory
# (see tools/ci.sh).
verify:
	sh tools/ci.sh

# Quick pass of the repo benchmark (all four workloads, one round;
# see bench/README.md) plus the engine microbenchmark.
bench:
	$(PYTHON) -m bench run --quick
	PYTHONPATH=src $(PYTHON) tools/bench_engine.py --quick

# Per-layer profile of the suite workload; its traced run is written
# to .bench_work/trace/suite.trace.json (Chrome trace events, Perfetto).
profile:
	$(PYTHON) -m bench run --workload suite --trace .bench_work/trace

report:
	PYTHONPATH=src $(PYTHON) tools/generate_report.py

clean-cache:
	PYTHONPATH=src $(PYTHON) -m repro.core.cli cache clear
