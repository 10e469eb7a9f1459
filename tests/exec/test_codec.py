"""Pipe codec: round-trip fidelity against the dict codec.

The warm pool ships every pooled result over its worker's pipe as
``dict_to_bytes``/``dict_from_bytes`` (a pickle of the payload dict),
so these tests are the byte-identity gate for that transport: every
golden report must decode to exactly the payload the lossless dict
codec produced, floats bit-exact, with type fidelity (ints stay ints,
floats stay floats).
"""

import json
import math
import os
import pickle

import pytest

from repro.exec.executor import _run_point_payload
from repro.exec.serialize import dict_from_bytes, dict_to_bytes
from repro.exec.shard import expand_shards, merge_shard_payloads
from repro.exec.spec import RunPoint

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "golden_reports.json"
)


def _golden_cases():
    with open(GOLDEN_PATH) as fh:
        goldens = json.load(fh)
    return sorted(goldens.items())


def _golden_payload(point):
    """The payload ``execute_point`` decodes: merged for a sharded run."""
    if point.shards > 1:
        payloads = [_run_point_payload(sub) for sub in expand_shards(point)]
        return merge_shard_payloads(point, payloads)
    return _run_point_payload(point)


def _typed(value):
    """Value tree annotated with JSON-semantic types.

    ``bool`` vs ``int`` vs ``float`` must be preserved, but subclasses
    (e.g. ``np.float64``, which some workload extras carry) count as
    their base scalar — the JSON cache path normalizes them the same
    way, and their canonical JSON text is identical.
    """
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    return (type(value).__name__, value)


class TestGoldenRoundTrips:
    """Every golden report survives the pipe codec."""

    @pytest.mark.parametrize(
        "case,entry", _golden_cases(), ids=[c for c, _ in _golden_cases()]
    )
    def test_golden_payload_round_trips(self, case, entry):
        point = RunPoint.from_dict(entry["point"])
        payload = _golden_payload(point)
        decoded = dict_from_bytes(dict_to_bytes(payload))
        assert decoded == payload
        # Equality alone tolerates 1 == 1.0; the canonical JSON and the
        # typed tree do not.
        assert json.dumps(decoded, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        assert _typed(decoded) == _typed(payload)


class TestValueFidelity:
    def test_scalar_round_trips(self):
        payload = {
            "none": None,
            "true": True,
            "false": False,
            "zero": 0,
            "neg": -12345,
            "big": 2**100,
            "neg_big": -(2**100),
            "pi": math.pi,
            "tiny": 5e-324,
            "unicode": "héllo ☃  ",
            "empty_str": "",
        }
        assert dict_from_bytes(dict_to_bytes(payload)) == payload
        assert _typed(dict_from_bytes(dict_to_bytes(payload))) == _typed(payload)

    def test_float_bit_exactness(self):
        values = [0.1, 1 / 3, 1e300, 5e-324, -0.0, 2.0**53 + 1.0]
        decoded = dict_from_bytes(dict_to_bytes({"v": values}))["v"]
        for got, want in zip(decoded, values):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got.hex() == want.hex()

    def test_non_finite_floats_round_trip(self):
        decoded = dict_from_bytes(
            dict_to_bytes({"v": [float("inf"), float("-inf"), float("nan")]})
        )["v"]
        assert decoded[0] == float("inf")
        assert decoded[1] == float("-inf")
        assert math.isnan(decoded[2])

    def test_empty_timeline_and_hooks(self):
        """The edge shape of a minimal report: no samples, no hooks."""
        payload = {
            "benchmark": "x",
            "metric_name": "rps",
            "metric_value": 1.5,
            "result": {"timeline": [], "extra": {}},
            "hooks": {},
            "score": None,
        }
        decoded = dict_from_bytes(dict_to_bytes(payload))
        assert decoded == payload
        assert decoded["result"]["timeline"] == []
        assert decoded["hooks"] == {}

    def test_nested_structures(self):
        payload = {"a": [{"b": [[1, 2.5], []]}, {}], "c": {"d": {"e": []}}}
        assert dict_from_bytes(dict_to_bytes(payload)) == payload


class TestFraming:
    def test_rejects_non_dict_root(self):
        data = pickle.dumps([1, 2, 3], protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ValueError, match="did not decode to a dict"):
            dict_from_bytes(data)
