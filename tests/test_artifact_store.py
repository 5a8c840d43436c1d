"""ArtifactStore: the memory layer's LRU bound and thread-safe shared
access — the invariants the daemon's resident store relies on.
"""

from __future__ import annotations

import pathlib
import threading

from repro.analysis import AnalysisConfig, ArtifactStore, Canary

from test_corpus import _parse_directives

CORPUS = pathlib.Path(__file__).parent / "corpus"


def _keys(report):
    return sorted(b.key for b in report.bugs)


# ----- memory-layer LRU -------------------------------------------------------


class TestMemoryLayerBounds:
    def test_lru_eviction_past_cap(self):
        store = ArtifactStore(max_memory_entries=3)
        for i in range(5):
            store.put(f"d{i}", f"v{i}")
        assert store.statistics()["artifacts_stored"] == 3
        assert store.statistics()["artifact_evictions"] == 2
        assert store.get("d0") is None  # oldest gone
        assert store.get("d4") == "v4"

    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_memory_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # touch a → b is now LRU
        store.put("c", 3)
        assert store.get("b") is None
        assert store.get("a") == 1

    def test_unbounded_by_default(self):
        store = ArtifactStore()
        for i in range(100):
            store.put(f"d{i}", i)
        assert store.statistics()["artifacts_stored"] == 100
        assert "artifact_evictions" not in store.statistics()


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
                store.put(f"{tid}-{i}", i)
                store.get(f"{tid}-{i}")
                store.get(f"missing-{i}")

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = store.statistics()
        # every get was counted exactly once, under the lock
        assert stats["artifact_hits"] + stats["artifact_misses"] == 4 * 300 * 2
        assert stats["artifacts_stored"] <= 64
