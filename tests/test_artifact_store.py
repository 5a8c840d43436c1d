"""ArtifactStore bugfix sweep: disk-store error accounting, strict disk
serialization, the memory-layer LRU, and thread-safe shared access.

These are the invariants the daemon's resident store relies on — each
regression test here pins one of the cache-layer bugs the one-shot CLI
used to hide (silent ``put_disk`` failures, lossy ``default=str``
serialization).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

import pytest

from repro.analysis import AnalysisConfig, ArtifactStore, Canary

from test_corpus import CORPUS_FILES, _parse_directives

CORPUS = pathlib.Path(__file__).parent / "corpus"


def _keys(report):
    return sorted(b.key for b in report.bugs)


# ----- satellite: silent disk-store failures ---------------------------------


class TestDiskStoreErrors:
    def test_oserror_on_replace_is_counted_not_raised(self, tmp_path, monkeypatch):
        store = ArtifactStore(cache_dir=str(tmp_path))

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        store.put_disk("run", "d1", {"ok": True})  # must not raise
        assert store.disk_store_errors == 1
        assert store.statistics()["disk_store_errors"] == 1
        assert "store-error disk:run" in store.events
        assert store.get_disk("run", "d1") is None  # nothing was published

    def test_oserror_on_mkstemp_is_counted_not_raised(self, tmp_path, monkeypatch):
        store = ArtifactStore(cache_dir=str(tmp_path))
        import tempfile

        def broken_mkstemp(**kwargs):
            raise OSError("too many open files")

        monkeypatch.setattr(tempfile, "mkstemp", broken_mkstemp)
        store.put_disk("run", "d2", {"ok": True})
        assert store.disk_store_errors == 1
        assert "store-error disk:run" in store.events

    def test_healthy_store_counts_nothing(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path))
        store.put_disk("run", "d3", {"ok": True})
        assert store.disk_store_errors == 0
        assert "disk_store_errors" not in store.statistics()
        assert store.get_disk("run", "d3") == {"ok": True}


# ----- satellite: lossy disk serialization -----------------------------------


class TestStrictDiskSerialization:
    def test_unportable_value_is_skipped_and_counted(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path))
        # pre-LRU code stringified this via ``default=str`` and persisted
        # a value that would rehydrate as a *different* object
        store.put_disk("run", "bad", {"payload": object()})
        assert store.disk_unportable == 1
        assert store.statistics()["disk_unportable"] == 1
        assert "unportable disk:run" in store.events
        assert list(tmp_path.iterdir()) == []  # nothing hit the disk
        assert store.get_disk("run", "bad") is None

    def test_portable_value_round_trips_exactly(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path))
        value = {"a": [1, 2.5, "x", None, True], "nested": {"k": "v"}}
        store.put_disk("run", "good", value)
        assert store.get_disk("run", "good") == value
        assert store.disk_unportable == 0

    def test_no_lossy_stringification_on_disk(self, tmp_path):
        # A set would have been persisted as its ``str()`` rendering
        # before the fix; now the entry is refused outright.
        store = ArtifactStore(cache_dir=str(tmp_path))
        store.put_disk("run", "s1", {"edges": {1, 2, 3}})
        assert store.disk_unportable == 1
        for path in tmp_path.iterdir():
            text = path.read_text()
            assert "{1, 2, 3}" not in text

    def test_corrupt_entry_still_counted_separately(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path))
        (tmp_path / "run-z.json").write_text("{truncated")
        assert store.get_disk("run", "z") is None
        assert store.disk_corrupt == 1
        assert store.disk_unportable == 0


# ----- memory-layer LRU and event-log bounds ---------------------------------


class TestMemoryLayerBounds:
    def test_lru_eviction_past_cap(self):
        store = ArtifactStore(max_memory_entries=3)
        for i in range(5):
            store.put("ns", i, f"v{i}")
        assert store.statistics()["artifacts_stored"] == 3
        assert store.statistics()["artifact_evictions"] == 2
        assert store.get("ns", 0) is None  # oldest gone
        assert store.get("ns", 4) == "v4"

    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_memory_entries=2)
        store.put("ns", "a", 1)
        store.put("ns", "b", 2)
        assert store.get("ns", "a") == 1  # touch a → b is now LRU
        store.put("ns", "c", 3)
        assert store.get("ns", "b") is None
        assert store.get("ns", "a") == 1

    def test_unbounded_by_default(self):
        store = ArtifactStore()
        for i in range(100):
            store.put("ns", i, i)
        assert store.statistics()["artifacts_stored"] == 100
        assert "artifact_evictions" not in store.statistics()

    def test_event_log_bounded(self):
        store = ArtifactStore(max_events=10)
        for i in range(50):
            store.note(f"e{i}")
        assert len(store.events) <= 10
        assert store.events[-1] == "e49"


# ----- satellite: concurrent access through one shared store -----------------


class TestConcurrentSharedStore:
    """Two threads analyzing through one ArtifactStore:
    no torn state, and bug keys equal the serial reference — the
    invariant the daemon's worker pool relies on."""

    FILES = [
        "uaf_basic.mcc",
        "mixed_all_checkers.mcc",
        "doublefree_cross_thread.mcc",
        "uaf_two_workers.mcc",
    ]

    def _reference(self, name):
        text = (CORPUS / name).read_text()
        _expects, checkers, overrides = _parse_directives(text)
        report = Canary(
            AnalysisConfig(checkers=checkers, **overrides)
        ).analyze_source(text, filename=name)
        return _keys(report)

    def test_distinct_files_in_parallel_match_serial(self):
        expected = {name: self._reference(name) for name in self.FILES}
        store = ArtifactStore()
        results: dict = {}
        errors: list = []

        def work(name):
            try:
                text = (CORPUS / name).read_text()
                _expects, checkers, overrides = _parse_directives(text)
                canary = Canary(
                    AnalysisConfig(checkers=checkers, **overrides), store=store
                )
                for _ in range(2):  # second lap rides the warm path
                    report = canary.analyze_source(text, filename=name)
                results[name] = _keys(report)
            except Exception as exc:  # surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=work, args=(n,)) for n in self.FILES]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert results == expected

    def test_same_file_in_parallel_matches_serial(self):
        name = "mixed_all_checkers.mcc"
        expected = self._reference(name)
        text = (CORPUS / name).read_text()
        _expects, checkers, overrides = _parse_directives(text)
        store = ArtifactStore()
        results: list = []
        errors: list = []

        def work():
            try:
                canary = Canary(
                    AnalysisConfig(checkers=checkers, **overrides), store=store
                )
                results.append(_keys(canary.analyze_source(text, filename=name)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert all(r == expected for r in results), results

    def test_counters_are_consistent_under_contention(self):
        store = ArtifactStore(max_memory_entries=64)

        def hammer(tid):
            for i in range(300):
                store.put("ns", (tid, i), i)
                store.get("ns", (tid, i))
                store.get("ns", ("missing", i))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = store.statistics()
        # every get was counted exactly once, under the lock
        assert stats["artifact_hits"] + stats["artifact_misses"] == 4 * 300 * 2
        assert stats["artifacts_stored"] <= 64
