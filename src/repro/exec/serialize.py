"""Full-fidelity codecs for benchmark reports: JSON dicts and bytes.

:meth:`BenchmarkReport.as_dict` is a *presentation* format — it
flattens the steady state into a summary and drops fields — so the
cache needs its own lossless encoding.  Python's JSON float handling
round-trips exactly (``repr`` based), which means a report that goes
through this codec is numerically identical to the original; the
executor routes *every* result through it (fresh, pooled, or cached)
so all three paths produce the same objects.

On top of the dict form sits a compact binary codec
(:func:`report_to_bytes` / :func:`report_from_bytes`): a tagged,
varint-framed encoding of the same payload tree, with floats carried
as raw IEEE-754 doubles (exact by construction, including negative
zero and subnormals).  The warm worker pool ships results through it
over each worker's pipe instead of pickling nested dicts — roughly a
third the bytes of the JSON text for a typical report, with no
parsing ambiguity.

Shard sub-run payloads additionally carry the recorder's mergeable
state (sorted samples or sparse histogram buckets) nested in
``result.extra`` — both codecs transport it losslessly, which is what
makes the shard merge byte-identical across the in-process and
warm-pool execution paths.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.hw.power import PowerBreakdown
from repro.uarch.cache_model import MissProfile
from repro.uarch.projection import SteadyState
from repro.uarch.tmam import TmamProfile
from repro.workloads.base import WorkloadResult

if TYPE_CHECKING:  # deferred: repro.core's __init__ imports repro.exec
    from repro.core.benchmark import BenchmarkReport


def _steady_to_dict(steady: SteadyState) -> Dict[str, object]:
    return {
        "workload": steady.workload,
        "sku": steady.sku,
        "cpu_util": steady.cpu_util,
        "kernel_frac": steady.kernel_frac,
        "effective_freq_ghz": steady.effective_freq_ghz,
        "misses": {
            "l1i_mpki": steady.misses.l1i_mpki,
            "l1d_mpki": steady.misses.l1d_mpki,
            "l2_mpki": steady.misses.l2_mpki,
            "llc_mpki": steady.misses.llc_mpki,
            "l1i_stall_mpki": steady.misses.l1i_stall_mpki,
        },
        "tmam": {
            "frontend": steady.tmam.frontend,
            "bad_speculation": steady.tmam.bad_speculation,
            "backend": steady.tmam.backend,
            "retiring": steady.tmam.retiring,
            "cycles_per_kinstr": steady.tmam.cycles_per_kinstr,
        },
        "ipc_per_physical_core": steady.ipc_per_physical_core,
        "instructions_per_second": steady.instructions_per_second,
        "memory_bandwidth_gbps": steady.memory_bandwidth_gbps,
        "memory_bandwidth_fraction": steady.memory_bandwidth_fraction,
        "power": {
            "core": steady.power.core,
            "soc": steady.power.soc,
            "dram": steady.power.dram,
            "other": steady.power.other,
        },
        "power_watts": steady.power_watts,
        "requests_per_second": steady.requests_per_second,
    }


def _steady_from_dict(payload: Dict[str, object]) -> SteadyState:
    misses = payload["misses"]
    tmam = payload["tmam"]
    power = payload["power"]
    return SteadyState(
        workload=payload["workload"],
        sku=payload["sku"],
        cpu_util=payload["cpu_util"],
        kernel_frac=payload["kernel_frac"],
        effective_freq_ghz=payload["effective_freq_ghz"],
        misses=MissProfile(**misses),
        tmam=TmamProfile(**tmam),
        ipc_per_physical_core=payload["ipc_per_physical_core"],
        instructions_per_second=payload["instructions_per_second"],
        memory_bandwidth_gbps=payload["memory_bandwidth_gbps"],
        memory_bandwidth_fraction=payload["memory_bandwidth_fraction"],
        power=PowerBreakdown(**power),
        power_watts=payload["power_watts"],
        requests_per_second=payload["requests_per_second"],
    )


def result_to_dict(result: WorkloadResult) -> Dict[str, object]:
    steady: Optional[Dict[str, object]] = None
    if result.steady is not None:
        steady = _steady_to_dict(result.steady)
    return {
        "workload": result.workload,
        "sku": result.sku,
        "kernel": result.kernel,
        "throughput_rps": result.throughput_rps,
        "latency": dict(result.latency),
        "cpu_util": result.cpu_util,
        "kernel_util": result.kernel_util,
        "scaling_efficiency": result.scaling_efficiency,
        "steady": steady,
        "extra": dict(result.extra),
        "timeline": [list(point) for point in result.timeline],
    }


def result_from_dict(payload: Dict[str, object]) -> WorkloadResult:
    steady = payload["steady"]
    return WorkloadResult(
        workload=payload["workload"],
        sku=payload["sku"],
        kernel=payload["kernel"],
        throughput_rps=payload["throughput_rps"],
        latency=dict(payload["latency"]),
        cpu_util=payload["cpu_util"],
        kernel_util=payload["kernel_util"],
        scaling_efficiency=payload["scaling_efficiency"],
        steady=None if steady is None else _steady_from_dict(steady),
        extra=dict(payload["extra"]),
        timeline=[list(point) for point in payload["timeline"]],
    )


def report_to_dict(report: BenchmarkReport) -> Dict[str, object]:
    """Lossless encoding of one report (unlike ``as_dict``)."""
    return {
        "benchmark": report.benchmark,
        "metric_name": report.metric_name,
        "metric_value": report.metric_value,
        "result": result_to_dict(report.result),
        "system": dict(report.system),
        "hooks": {name: dict(sec) for name, sec in report.hook_sections.items()},
        "score": report.score,
    }


def report_from_dict(payload: Dict[str, object]) -> "BenchmarkReport":
    from repro.core.benchmark import BenchmarkReport

    return BenchmarkReport(
        benchmark=payload["benchmark"],
        metric_name=payload["metric_name"],
        metric_value=payload["metric_value"],
        result=result_from_dict(payload["result"]),
        system=dict(payload["system"]),
        hook_sections={n: dict(s) for n, s in payload["hooks"].items()},
        score=payload["score"],
    )


# -- binary codec --------------------------------------------------------------
#
# A minimal tagged binary format for the payload trees the dict codec
# produces: None, bools, ints, floats, strings, lists, and dicts with
# string keys.  Ints are zigzag varints (arbitrary precision), floats
# are big-endian IEEE-754 doubles (bit-exact round trip), strings are
# varint-length UTF-8.  Dict keys skip the type tag — they are always
# strings in a report payload.

#: Magic prefix of a binary report: codec name + format version.
BINARY_MAGIC = b"DCRB\x01"

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_DICT = 0x07

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_value(out: bytearray, value: object) -> None:
    # bool first: it is a subclass of int.
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_uvarint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _pack_double(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(encoded))
        out += encoded
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"binary report codec requires str dict keys, got {key!r}"
                )
            encoded = key.encode("utf-8")
            _write_uvarint(out, len(encoded))
            out += encoded
            _encode_value(out, item)
    else:
        raise TypeError(
            f"binary report codec cannot encode {type(value).__name__}: {value!r}"
        )


def _zigzag(value: int) -> int:
    """Map signed to unsigned, small magnitudes first (any precision)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _decode_value(data: bytes, pos: int) -> Tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        raw, pos = _read_uvarint(data, pos)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        return _unpack_double(data, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == _T_LIST:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        mapping: Dict[str, object] = {}
        for _ in range(count):
            length, pos = _read_uvarint(data, pos)
            key = data[pos : pos + length].decode("utf-8")
            pos += length
            mapping[key], pos = _decode_value(data, pos)
        return mapping, pos
    raise ValueError(f"binary report codec: unknown tag 0x{tag:02x} at {pos - 1}")


def dict_to_bytes(payload: Dict[str, object]) -> bytes:
    """Compact binary encoding of one lossless report payload dict."""
    out = bytearray(BINARY_MAGIC)
    _encode_value(out, payload)
    return bytes(out)


def dict_from_bytes(data: bytes) -> Dict[str, object]:
    """Inverse of :func:`dict_to_bytes`; validates the magic prefix."""
    if data[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise ValueError(
            "not a binary report payload (bad magic "
            f"{bytes(data[: len(BINARY_MAGIC)])!r})"
        )
    value, pos = _decode_value(bytes(data), len(BINARY_MAGIC))
    if pos != len(data):
        raise ValueError(
            f"binary report payload has {len(data) - pos} trailing byte(s)"
        )
    if not isinstance(value, dict):
        raise ValueError("binary report payload did not decode to a dict")
    return value


def report_to_bytes(report: BenchmarkReport) -> bytes:
    """Lossless binary encoding of one report (see :data:`BINARY_MAGIC`)."""
    return dict_to_bytes(report_to_dict(report))


def report_from_bytes(data: bytes) -> "BenchmarkReport":
    """Decode a report encoded by :func:`report_to_bytes`."""
    return report_from_dict(dict_from_bytes(data))
