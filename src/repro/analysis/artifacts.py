"""The whole-run cache behind the pass pipeline.

One in-memory layer, keyed by the run digest (source text, filename and
config hash).  A run's record is the portable report
(:func:`~repro.analysis.fingerprint.report_to_portable` plus its pass
rows) stored together with a label -> instruction map of the
instructions its findings name
(:func:`~repro.analysis.fingerprint.named_instructions`), so a hit
rehydrates without running any pass and a record keeps no module, VFG
or other analysis state alive.  The store is scoped to one
:class:`~repro.analysis.driver.Canary` instance or, in daemon mode,
shared by every request of a
:class:`~repro.server.service.AnalysisService`.

Nothing a run computes is shared with a later run except these records.

Thread-safety: the counters and the memory layer are guarded by one
lock, so concurrent pipelines (the daemon's worker pool) can share a
store.  Records are never mutated after they are stored, so concurrent
runs of the same file need no further locking.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["ArtifactStore"]


class ArtifactStore:
    """The run cache, with hit/miss accounting and an optional LRU bound."""

    def __init__(self, max_memory_entries: Optional[int] = None) -> None:
        #: LRU bound on the memory layer (None = unbounded, the one-shot
        #: CLI default; the daemon sets a cap so a resident store cannot
        #: grow without bound across tenants)
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            stats = {
                "artifact_hits": self.hits,
                "artifact_misses": self.misses,
                "artifacts_stored": len(self._memory),
            }
            if self.evictions:
                stats["artifact_evictions"] = self.evictions
            return stats

    def get(self, digest: str) -> Optional[Any]:
        with self._lock:
            value = self._memory.get(digest)
            if value is None:
                self.misses += 1
            else:
                self._memory.move_to_end(digest)
                self.hits += 1
            return value

    def put(self, digest: str, value: Any) -> None:
        with self._lock:
            self._memory[digest] = value
            self._memory.move_to_end(digest)
            if self.max_memory_entries is not None:
                while len(self._memory) > self.max_memory_entries:
                    self._memory.popitem(last=False)
                    self.evictions += 1
