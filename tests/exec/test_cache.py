"""Tests for the persistent run cache."""

import json
import os

import pytest

from repro.exec.cache import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    RunCache,
    cache_enabled,
    cache_from_env,
    default_cache_dir,
)
from repro.exec import spec
from repro.exec.spec import RunPoint, run_fingerprint

POINT = RunPoint(benchmark="taobench")
PAYLOAD = {"benchmark": "taobench", "metric": 123.456}


class TestRunCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cache.put("abc123", POINT, PAYLOAD)
        assert cache.get("abc123") == PAYLOAD
        assert cache.hits == 1
        assert cache.misses == 0

    def test_miss_returns_none(self, tmp_path):
        cache = RunCache(str(tmp_path))
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        """An entry renamed (or tampered with) on disk must not load."""
        cache = RunCache(str(tmp_path))
        cache.put("abc123", POINT, PAYLOAD)
        os.rename(tmp_path / "abc123.json", tmp_path / "def456.json")
        assert cache.get("def456") is None

    def test_entries_are_valid_json_with_point(self, tmp_path):
        cache = RunCache(str(tmp_path))
        path = cache.put("abc123", POINT, PAYLOAD)
        entry = json.loads(open(path).read())
        assert entry["fingerprint"] == "abc123"
        assert RunPoint.from_dict(entry["point"]) == POINT
        assert entry["report"] == PAYLOAD

    def test_info_and_clear(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cache.put("a" * 8, POINT, PAYLOAD)
        cache.put("b" * 8, POINT, PAYLOAD)
        info = cache.info()
        assert info.directory == str(tmp_path)
        assert info.entries == 2
        assert info.total_bytes > 0
        assert cache.clear() == 2
        assert cache.info().entries == 0

    def test_info_on_missing_directory(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.info().entries == 0
        assert cache.clear() == 0

    def test_temp_files_ignored(self, tmp_path):
        cache = RunCache(str(tmp_path))
        (tmp_path / ".tmp-leftover.json").write_text("{}")
        assert cache.info().entries == 0

    def test_entry_under_its_run_fingerprint_is_current(self, tmp_path):
        cache = RunCache(str(tmp_path))
        path = cache.put(run_fingerprint(POINT), POINT, PAYLOAD)
        assert "schema" not in json.loads(open(path).read())
        assert not RunCache.is_stale(path)
        info = cache.info()
        assert (info.entries, info.current, info.stale) == (1, 1, 0)

    def test_info_counts_current_and_stale(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cache.put(run_fingerprint(POINT), POINT, PAYLOAD)
        # An entry from before points were recorded, an orphaned one
        # (its fingerprint is not the one the running code gives its
        # point), an unparseable point, and a corrupt file.
        (tmp_path / ("b" * 8 + ".json")).write_text(
            json.dumps({"fingerprint": "b" * 8, "report": PAYLOAD})
        )
        cache.put("c" * 8, POINT, PAYLOAD)
        (tmp_path / ("d" * 8 + ".json")).write_text(json.dumps({
            "fingerprint": "d" * 8,
            "point": {"benchmark": "taobench", "retired_field": 1},
            "report": PAYLOAD,
        }))
        (tmp_path / ("e" * 8 + ".json")).write_text("{not json")
        info = cache.info()
        assert (info.entries, info.current, info.stale) == (5, 1, 4)

    def test_clear_stale_keeps_current_entries(self, tmp_path):
        cache = RunCache(str(tmp_path))
        current = run_fingerprint(POINT)
        cache.put(current, POINT, PAYLOAD)
        cache.put("b" * 8, POINT, PAYLOAD)
        (tmp_path / ("c" * 8 + ".json")).write_text("{not json")
        assert cache.clear(stale_only=True) == 2
        info = cache.info()
        assert (info.entries, info.stale) == (1, 0)
        # The surviving entry still loads.
        assert cache.get(current) == PAYLOAD

    def test_entry_written_under_other_code_is_stale(
        self, tmp_path, monkeypatch
    ):
        """Any source edit changes every run fingerprint, so an entry
        written by other code can never be served again."""
        cache = RunCache(str(tmp_path))
        current = run_fingerprint(POINT)
        cache.put(current, POINT, PAYLOAD)
        other = RunPoint(benchmark="feedsim")
        monkeypatch.setattr(spec, "code_fingerprint", lambda: "0" * 16)
        orphan = run_fingerprint(other)
        cache.put(orphan, other, PAYLOAD)
        monkeypatch.undo()
        assert run_fingerprint(other) != orphan
        info = cache.info()
        assert (info.entries, info.current, info.stale) == (2, 1, 1)
        assert cache.clear(stale_only=True) == 1
        assert not (tmp_path / f"{orphan}.json").exists()
        assert cache.get(current) == PAYLOAD

    def test_interrupted_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """An interrupt mid-write removes the temp file and leaves no
        entry: listings skip ``.tmp-*`` names, so a leaked one would
        never be reclaimed."""
        cache = RunCache(str(tmp_path))

        def interrupted_dump(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.put("abc123", POINT, PAYLOAD)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == []
        assert cache.get("abc123") is None

    def test_leftover_cost_ledger_is_a_stale_entry(self, tmp_path):
        """Older versions kept a ``cost_ledger.json`` sidecar next to
        the entries.  It lists as one stale entry, is never served, and
        a stale-only clear removes it."""
        cache = RunCache(str(tmp_path))
        current = run_fingerprint(POINT)
        cache.put(current, POINT, PAYLOAD)
        sidecar = tmp_path / "cost_ledger.json"
        sidecar.write_text(json.dumps({
            "version": 1,
            "by_fingerprint": {"a" * 8: {"seconds": 1.5, "count": 1}},
            "by_class": {},
        }))
        info = cache.info()
        assert (info.entries, info.current, info.stale) == (2, 1, 1)
        assert cache.get("cost_ledger") is None
        assert cache.get(current) == PAYLOAD
        assert cache.clear(stale_only=True) == 1
        assert not sidecar.exists()
        assert cache.info().stale == 0


class TestEnvironment:
    def test_dir_env_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        cache = cache_from_env()
        assert cache is not None
        assert cache.directory == str(tmp_path)

    def test_default_dir_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().endswith(
            os.path.join(".cache", "dcperf-repro")
        )

    def test_disable_env(self, monkeypatch):
        for value in ("0", "false", "OFF", "no"):
            monkeypatch.setenv(CACHE_ENABLE_ENV, value)
            assert not cache_enabled()
            assert cache_from_env() is None
        monkeypatch.setenv(CACHE_ENABLE_ENV, "1")
        assert cache_enabled()
