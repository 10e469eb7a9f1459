"""The repository's own benchmark: how fast the simulator runs its sweeps.

``python -m bench run`` times four sweep workloads end to end in fresh
interpreters, checks every report against reference digests, and makes
one traced run per workload for per-layer numbers.  ``python -m bench
measure`` is the single-workload form that prints one JSON result line;
``python -m bench compare`` applies the bounds in ``BENCHMARK.json`` to
two ``run`` outputs.  See ``bench/README.md``.

This package imports nothing from ``repro`` at module level: the parent
process only launches children, so its own imports never count toward
what is measured.
"""
