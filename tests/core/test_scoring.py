"""Tests for score normalization and aggregation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.scoring import geometric_mean, weighted_geometric_mean


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(
        values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20),
        scale=st.floats(0.1, 10.0),
    )
    def test_scale_invariance(self, values, scale):
        scaled = geometric_mean([v * scale for v in values])
        assert scaled == pytest.approx(geometric_mean(values) * scale, rel=1e-6)


class TestWeightedGeometricMean:
    def test_equal_weights_match_plain(self):
        values = {"a": 2.0, "b": 8.0}
        weighted = weighted_geometric_mean(values, {"a": 1.0, "b": 1.0})
        assert weighted == pytest.approx(geometric_mean(values.values()))

    def test_heavy_weight_pulls_toward_value(self):
        values = {"a": 1.0, "b": 16.0}
        toward_b = weighted_geometric_mean(values, {"a": 1.0, "b": 9.0})
        assert toward_b > geometric_mean(values.values())

    def test_missing_weight_defaults_to_one(self):
        values = {"a": 4.0, "b": 4.0}
        assert weighted_geometric_mean(values, {}) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_geometric_mean({}, {})
        with pytest.raises(ValueError):
            weighted_geometric_mean({"a": -1.0}, {"a": 1.0})

