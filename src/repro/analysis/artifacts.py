"""Content-addressed artifact store for the pass pipeline.

Two layers:

* an **in-memory layer** scoped to one :class:`~repro.analysis.driver.Canary`
  instance (or, in daemon mode, shared by every request of a
  :class:`~repro.server.service.AnalysisService`).  It holds *live*
  objects — lowered functions, dataflow journals, the pointer/thread-
  structure triple, per-checker detection results — keyed by content
  fingerprints plus object-identity validity conditions checked at
  reuse time;
* an optional **on-disk layer** (``cache_dir``) holding portable,
  JSON-encoded whole-run reports keyed by the source text, filename and
  config hash, so a warm re-run in a fresh process is near-instant.

The store also owns the cross-run solver caches, defined here: one
:class:`VerdictCache` (Φ_all → verdict) and one
:class:`ReachabilityIndexCache` (sink set → backward reachability
index), both shared by every run of the owning driver.

Thread-safety: all counters, the event log and the memory layer are
guarded by one reentrant lock, so concurrent pipelines (the daemon's
worker pool) can share a store.  Mutable lineage-keyed artifacts
(lowering caches, dataflow journals) additionally need the per-lineage
lock (:meth:`lineage_lock`) held for the duration of a run — the
pipeline acquires it, so two concurrent requests for the *same* file
serialize (and the second one rides the incremental path) while
distinct files analyze in parallel.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..detection.reachability import SinkReachabilityIndex
from ..smt.terms import BoolTerm
from ..vfg.graph import ValueFlowGraph, VFGNode

__all__ = ["ArtifactStore", "ReachabilityIndexCache", "VerdictCache"]


#: a cached verdict: (verdict, ints, bool atoms, unknown reason)
_CacheEntry = Tuple[str, Dict[str, int], Dict[str, bool], str]


class VerdictCache:
    """Structural Φ_all → verdict memo, shared across checkers of a run.

    Keys are the formula terms themselves: the term DSL hash-conses, so
    two structurally identical Φ_all are the same object and repeated
    queries (the common case when many paths share guards and order
    skeletons, cf. DFI's reuse of solved sub-queries) hit the cache.
    Entries store only plain data, materialized into a fresh
    :class:`~repro.detection.realizability.RealizabilityResult` per hit.
    Thread-safe (the daemon's workers share one instance); hit/miss
    counters are exact.
    """

    def __init__(self) -> None:
        self._entries: Dict[BoolTerm, _CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def peek(self, formula: BoolTerm) -> Optional[_CacheEntry]:
        """Look up without touching the hit/miss counters (callers count
        via :meth:`record` once they commit to using the answer)."""
        with self._lock:
            return self._entries.get(formula)

    def record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def store(self, formula: BoolTerm, entry: _CacheEntry) -> None:
        with self._lock:
            self._entries[formula] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReachabilityIndexCache:
    """Cross-run memo of sink-set → index, bounded by LRU eviction.

    Checkers that share a sink class (identical sink node sets over the
    same VFG — e.g. two pointer-dereference properties) share one index;
    the cache key is the sink set itself, so sharing is by construction
    rather than by checker name.

    Entries are keyed by graph identity and validated against the VFG
    version stamped at build time, so an index of a mutated (or dead)
    graph can never serve a hit.  Past ``capacity`` entries the
    least-recently-used index is evicted — a resident daemon cycling
    many subjects keeps its hot sink classes warm instead of losing the
    whole cache (the pre-LRU behavior discarded everything past a size
    threshold, zeroing the hit rate exactly when the cache mattered).
    Thread-safe: the daemon's worker pool shares one instance.
    """

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = max(1, capacity)
        self._indexes: "OrderedDict[Tuple[int, FrozenSet[VFGNode], int], SinkReachabilityIndex]" = (
            OrderedDict()
        )
        self._graphs: Dict[int, ValueFlowGraph] = {}  # keep ids stable
        self._lock = threading.Lock()
        self.builds = 0
        self.shared_hits = 0
        self.evictions = 0

    def get(
        self,
        vfg: ValueFlowGraph,
        sinks: Iterable[VFGNode],
        context_depth: int = 6,
    ) -> SinkReachabilityIndex:
        key = (id(vfg), frozenset(sinks), max(1, context_depth))
        with self._lock:
            index = self._indexes.get(key)
            if index is not None and index.built_at_version == getattr(
                vfg, "version", None
            ):
                self._indexes.move_to_end(key)
                self.shared_hits += 1
                return index
        # Build outside the lock: indexing is the expensive part, and a
        # duplicate build by a racing thread is harmless (last write wins,
        # both indexes are equally valid for their graph version).
        index = SinkReachabilityIndex(vfg, key[1], key[2])
        with self._lock:
            self._indexes[key] = index
            self._indexes.move_to_end(key)
            self._graphs[id(vfg)] = vfg
            self.builds += 1
            while len(self._indexes) > self.capacity:
                old_key, _ = self._indexes.popitem(last=False)
                self.evictions += 1
                if not any(k[0] == old_key[0] for k in self._indexes):
                    self._graphs.pop(old_key[0], None)
        return index

    @property
    def hit_rate(self) -> float:
        total = self.builds + self.shared_hits
        return self.shared_hits / total if total else 0.0

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._indexes),
                "builds": self.builds,
                "shared_hits": self.shared_hits,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)



class ArtifactStore:
    """Keyed artifact storage with hit/miss accounting and an event log."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        summary_cache_dir: Optional[str] = None,
        max_memory_entries: Optional[int] = None,
        max_events: Optional[int] = None,
        index_capacity: int = 32,
    ) -> None:
        self.cache_dir = cache_dir
        #: dedicated home of the per-function summary namespace (``vfs``);
        #: falls back to ``cache_dir`` when unset, so plain ``--cache-dir``
        #: runs persist summaries alongside whole-run reports
        self.summary_cache_dir = summary_cache_dir
        #: LRU bound on the memory layer (None = unbounded, the one-shot
        #: CLI default; the daemon sets a cap so a resident store cannot
        #: grow without bound across tenants)
        self.max_memory_entries = max_memory_entries
        #: bound on the event log (None = unbounded); a resident daemon
        #: trims the oldest half past the cap, so ``explain_cache`` output
        #: may be truncated there — a debugging aid, never load-bearing
        self.max_events = max_events
        self._memory: "OrderedDict[Tuple[str, Any], Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._lineage_locks: Dict[Any, threading.RLock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: disk entries that existed but failed to decode (truncated or
        #: corrupt JSON) — counted, treated as misses, never raised
        self.disk_corrupt = 0
        #: disk writes that failed (full disk, permissions, torn rename) —
        #: counted and noted, never raised: the cache stays a cache, but
        #: the failure is visible in ``--stats``/metrics instead of silent
        self.disk_store_errors = 0
        #: disk writes skipped because the value is not strictly JSON-
        #: serializable — persisting a lossy ``default=str`` rendering
        #: would rehydrate as a *different* value later, which is worse
        #: than no cache entry at all
        self.disk_unportable = 0
        self.events: List[str] = []
        #: Φ_all → verdict memo shared across runs (PR 1)
        self.verdict_cache = VerdictCache()
        #: sink-set → backward reachability index memo shared across runs
        #: (PR 2); LRU-bounded, so a resident daemon keeps hot sink
        #: classes warm instead of periodically losing the whole cache
        self.index_cache = ReachabilityIndexCache(capacity=index_capacity)
        for directory in (cache_dir, summary_cache_dir):
            if directory:
                os.makedirs(directory, exist_ok=True)

    # ----- event log ------------------------------------------------------

    def note(self, event: str) -> None:
        with self._lock:
            self.events.append(event)
            if self.max_events is not None and len(self.events) > self.max_events:
                del self.events[: len(self.events) // 2]

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            stats = {
                "artifact_hits": self.hits,
                "artifact_misses": self.misses,
                "artifacts_stored": len(self._memory),
                "disk_corrupt": self.disk_corrupt,
            }
            if self.disk_store_errors:
                stats["disk_store_errors"] = self.disk_store_errors
            if self.disk_unportable:
                stats["disk_unportable"] = self.disk_unportable
            if self.evictions:
                stats["artifact_evictions"] = self.evictions
            return stats

    # ----- concurrency ----------------------------------------------------

    def lineage_lock(self, lineage: Any) -> threading.RLock:
        """The per-lineage run lock: held by a pipeline for the duration
        of a cached analysis of ``lineage``, serializing mutation of the
        lineage-keyed live artifacts (lowering cache, dataflow journal,
        thread triple) between concurrent requests for the same file."""
        with self._lock:
            lock = self._lineage_locks.get(lineage)
            if lock is None:
                lock = self._lineage_locks[lineage] = threading.RLock()
            return lock

    # ----- in-memory layer -------------------------------------------------

    def get(self, namespace: str, key: Any) -> Optional[Any]:
        with self._lock:
            value = self._memory.get((namespace, key))
            if value is None:
                self.misses += 1
            else:
                self._memory.move_to_end((namespace, key))
                self.hits += 1
        self.note(f"{'hit' if value is not None else 'miss'} {namespace}")
        return value

    def put(self, namespace: str, key: Any, value: Any) -> Any:
        with self._lock:
            self._memory[(namespace, key)] = value
            self._memory.move_to_end((namespace, key))
            self._evict_over_cap()
        self.note(f"store {namespace}")
        return value

    def setdefault(self, namespace: str, key: Any, factory) -> Any:
        with self._lock:
            value = self._memory.get((namespace, key))
            if value is None:
                value = self._memory[(namespace, key)] = factory()
            self._memory.move_to_end((namespace, key))
            self._evict_over_cap()
            return value

    def _evict_over_cap(self) -> None:
        # caller holds self._lock
        if self.max_memory_entries is None:
            return
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # ----- on-disk layer -----------------------------------------------------

    def _disk_dir(self, namespace: str) -> Optional[str]:
        if namespace == "vfs" and self.summary_cache_dir:
            return self.summary_cache_dir
        return self.cache_dir

    def has_disk(self, namespace: str) -> bool:
        return self._disk_dir(namespace) is not None

    def _disk_path(self, namespace: str, digest: str) -> Optional[str]:
        directory = self._disk_dir(namespace)
        if not directory:
            return None
        return os.path.join(directory, f"{namespace}-{digest}.json")

    def get_disk(self, namespace: str, digest: str) -> Optional[dict]:
        path = self._disk_path(namespace, digest)
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                value = json.load(fh)
        except OSError:
            with self._lock:
                self.misses += 1
            self.note(f"miss disk:{namespace}")
            return None
        except ValueError:
            # The file exists but does not decode: a truncated write from
            # a killed process, or external corruption.  A cache must
            # never turn that into a run failure — count it and recompute.
            with self._lock:
                self.disk_corrupt += 1
                self.misses += 1
            self.note(f"corrupt disk:{namespace}")
            return None
        with self._lock:
            self.hits += 1
        self.note(f"hit disk:{namespace}")
        return value

    def put_disk(self, namespace: str, digest: str, value: dict) -> None:
        path = self._disk_path(namespace, digest)
        if path is None:
            return
        # Strict serialization first: a payload that only encodes through
        # ``default=str`` would rehydrate as a *different* value (labels
        # stringified, tuples listified beyond the documented schema), so
        # skip the store and count it rather than persist a lie.
        try:
            encoded = json.dumps(value)
        except (TypeError, ValueError):
            with self._lock:
                self.disk_unportable += 1
            self.note(f"unportable disk:{namespace}")
            return
        # Atomic publish: the temp file lives in the destination directory
        # (same filesystem, so ``os.replace`` is atomic) and a concurrent
        # reader sees the old file or the new one, never a torn write.
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        except OSError:
            with self._lock:
                self.disk_store_errors += 1
            self.note(f"store-error disk:{namespace}")
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(encoded)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            with self._lock:
                self.disk_store_errors += 1
            self.note(f"store-error disk:{namespace}")
            return
        self.note(f"store disk:{namespace}")

    # ----- housekeeping -------------------------------------------------------

    def begin_run(self) -> None:
        """Per-run housekeeping hook.  The reachability cache bounds
        itself by LRU eviction (entries keyed by dead VFG versions age
        out naturally), so — unlike the pre-LRU behavior, which
        discarded the *whole* cache past a size threshold and zeroed the
        daemon's hit rate — nothing is reset here."""
