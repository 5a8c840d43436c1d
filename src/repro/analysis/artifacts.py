"""The whole-run cache behind the pass pipeline.

One record format, two layers.  A run's record is the portable report
(:func:`~repro.analysis.fingerprint.report_to_portable` plus its pass
rows): plain data keyed by instruction labels, which are deterministic
per source text.  Both layers are keyed by the run digest (source text,
filename and config hash):

* the **in-memory layer**, scoped to one
  :class:`~repro.analysis.driver.Canary` instance (or, in daemon mode,
  shared by every request of a
  :class:`~repro.server.service.AnalysisService`), stores the record
  together with the lowered :class:`~repro.ir.module.IRModule`, so a hit
  rehydrates without running any pass;
* the optional **on-disk layer** (``cache_dir``) stores the record as
  JSON, so a fresh process re-runs only parse and lower and then
  rehydrates the record against its own module.

Nothing a run computes is shared with a later run except these records.

Thread-safety: all counters, the event log and the memory layer are
guarded by one reentrant lock, so concurrent pipelines (the daemon's
worker pool) can share a store.  Records are never mutated after they
are stored, so concurrent runs of the same file need no further locking.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ArtifactStore"]


class ArtifactStore:
    """The run cache's two layers, with hit/miss accounting and an event
    log."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_memory_entries: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.cache_dir = cache_dir
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
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

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

    def _evict_over_cap(self) -> None:
        # caller holds self._lock
        if self.max_memory_entries is None:
            return
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # ----- on-disk layer -----------------------------------------------------

    def _disk_path(self, namespace: str, digest: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{namespace}-{digest}.json")

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
