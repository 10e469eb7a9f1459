"""Score normalization and suite aggregation.

DCPerf reports a per-benchmark normalized score — the machine's
application metric divided by a known baseline machine's — and an
overall score that is the geometric mean of the benchmark scores
(Section 3.1).  SKU1 is the baseline, matching Figure 2 ("the
projection errors are 0% for SKU1 because it is used as the baseline
for calibration").
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

BASELINE_SKU = "SKU1"


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty input or non-positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean requires positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_geometric_mean(
    values: Dict[str, float], weights: Dict[str, float]
) -> float:
    """Geomean with per-key weights (power-weighted production score)."""
    if not values:
        raise ValueError("weighted geometric mean of empty mapping")
    total_weight = sum(weights.get(k, 1.0) for k in values)
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    acc = 0.0
    for key, value in values.items():
        if value <= 0:
            raise ValueError(f"non-positive value for {key}: {value}")
        acc += weights.get(key, 1.0) * math.log(value)
    return math.exp(acc / total_weight)

