"""Workload registry: name -> class, with lazy imports.

Lazy so that importing one workload module does not pull in every
other (and so the package ``__init__`` stays cycle-free).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from repro.workloads.base import Workload
from repro.workloads.profiles import BENCHMARK_TO_PRODUCTION, PRODUCTION_PROFILES

#: name -> (module under ``repro.workloads``, class, constructor kwargs).
_WORKLOADS: Dict[str, Tuple[str, str, Dict[str, str]]] = {
    "taobench": ("taobench", "TaoBench", {}),
    "feedsim": ("feedsim", "FeedSim", {}),
    "djangobench": ("djangobench", "DjangoBench", {}),
    "mediawiki": ("mediawiki", "MediaWiki", {}),
    "sparkbench": ("sparkbench", "SparkBench", {}),
    "videotranscode": ("videotranscode", "VideoTranscodeBench", {}),
    "storagebench": ("storagebench", "StorageBench", {}),
    "aibench": ("aibench", "AiBench", {}),
    # The llmbench family: one entry per catalog mix, plus a bare
    # "llmbench" alias for the flagship chat mix.
    "llmbench": ("llmbench", "LlmBench", {"mix": "chat", "name": "llmbench"}),
    **{
        f"llmbench-{mix}": (
            "llmbench", "LlmBench", {"mix": mix, "name": f"llmbench-{mix}"}
        )
        for mix in ("chat", "codegen", "rag_summarize", "long_reasoning")
    },
}


def get_workload(name: str) -> Workload:
    """Instantiate a DCPerf benchmark or production counterpart.

    ``<benchmark>:prod`` (e.g. ``taobench:prod``) runs the benchmark's
    concurrency structure with the production workload's calibrated
    profile: the pairs Figures 4-12 compare and Figure 2 aggregates.
    """
    base = name[: -len(":prod")] if name.endswith(":prod") else name
    try:
        module, class_name, kwargs = _WORKLOADS[base]
        if base != name:
            chars = PRODUCTION_PROFILES[BENCHMARK_TO_PRODUCTION[base]]
            kwargs = {**kwargs, "chars": chars}
    except KeyError:
        known = ", ".join(workload_names() + production_counterparts())
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    module_path = f"repro.workloads.{module}"
    return getattr(importlib.import_module(module_path), class_name)(**kwargs)


def workload_names() -> List[str]:
    """Every registered workload name, sorted."""
    return sorted(_WORKLOADS)


def dcperf_benchmarks() -> List[str]:
    """Names of the benchmarks in the DCPerf suite, in Table 1 order.

    ``storagebench`` extends the published six with the persistent
    key-value storage tier; it is scored into the suite geomean like
    the rest.
    """
    return [
        "mediawiki",
        "djangobench",
        "feedsim",
        "taobench",
        "sparkbench",
        "videotranscode",
        "storagebench",
    ]


def production_counterparts() -> List[str]:
    """Names of the production-counterpart variants."""
    return [f"{name}:prod" for name in dcperf_benchmarks()]


def llm_serving_benchmarks() -> List[str]:
    """The scored llmbench suite entries.

    ``chat`` and ``codegen`` are the two production-representative
    serving mixes scored into the default suite; ``rag_summarize`` and
    ``long_reasoning`` stay unscored probes (run them by name).
    """
    return ["llmbench-chat", "llmbench-codegen"]


def extension_benchmarks() -> List[str]:
    """Benchmarks beyond the paper's published six.

    ``aibench`` implements the paper's stated future work (Section 8:
    AI-related workloads); it is not part of the scored default suite.
    The ``llmbench`` family (token serving over continuous batching)
    extends the same future-work category — its ``chat``/``codegen``
    mixes are scored via :func:`llm_serving_benchmarks`, and the other
    catalog mixes run unscored.
    """
    return [
        "aibench",
        "llmbench",
        "llmbench-rag_summarize",
        "llmbench-long_reasoning",
    ]
