"""Report records and their lifecycle for the analysis daemon.

A submission creates a :class:`ReportRecord` in state ``queued``; a
worker moves it to ``running`` and finally ``done`` (with the portable,
label-keyed result dict of
:func:`~repro.analysis.fingerprint.report_to_portable`) or
``failed`` (with the error string).  The registry is the daemon's only
session state: it is bounded (``max_reports``), evicting the oldest
*finished* records first so in-flight work is never dropped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ReportRecord", "ReportRegistry"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: states a record can be evicted in (never in-flight work)
_FINISHED = (DONE, FAILED)


@dataclass
class ReportRecord:
    """One submitted analysis request and (eventually) its result."""

    id: str
    filename: str
    config_digest: str
    status: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: portable result payload (bugs, statistics, pass table) when done
    result: Optional[Dict[str, Any]] = None
    #: error rendering when failed
    error: Optional[str] = None
    #: the run's flattened metrics registry snapshot when done
    metrics: Optional[Dict[str, Any]] = None

    def as_dict(self, include_result: bool = True) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "filename": self.filename,
            "config_digest": self.config_digest,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            data["error"] = self.error
        if include_result and self.result is not None:
            data["result"] = self.result
            data["metrics"] = self.metrics
        return data


class ReportRegistry:
    """Thread-safe id → :class:`ReportRecord` map with bounded retention."""

    def __init__(self, max_reports: int = 256) -> None:
        self.max_reports = max(1, max_reports)
        self._records: Dict[str, ReportRecord] = {}
        self._order: List[str] = []  # submission order, oldest first
        self._lock = threading.Lock()
        self._next = 0
        self._condition = threading.Condition(self._lock)
        self.evicted = 0

    def create(self, filename: str, config_digest: str) -> ReportRecord:
        with self._lock:
            self._next += 1
            record = ReportRecord(
                id=f"r{self._next:06d}",
                filename=filename,
                config_digest=config_digest,
            )
            self._records[record.id] = record
            self._order.append(record.id)
            self._evict_over_cap()
            return record

    def _evict_over_cap(self) -> None:
        # caller holds self._lock; finished records age out oldest-first
        while len(self._records) > self.max_reports:
            victim = next(
                (rid for rid in self._order if self._records[rid].status in _FINISHED),
                None,
            )
            if victim is None:
                return  # everything is in flight; retention grows temporarily
            self._order.remove(victim)
            del self._records[victim]
            self.evicted += 1

    def get(self, report_id: str) -> Optional[ReportRecord]:
        with self._lock:
            return self._records.get(report_id)

    def list(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                self._records[rid].as_dict(include_result=False)
                for rid in self._order
            ]

    # ----- lifecycle transitions (workers) ---------------------------------

    def set_running(self, report_id: str) -> None:
        with self._condition:
            record = self._records.get(report_id)
            if record is not None:
                record.status = RUNNING
                record.started_at = time.time()

    def set_done(
        self,
        report_id: str,
        result: Dict[str, Any],
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        with self._condition:
            record = self._records.get(report_id)
            if record is not None:
                record.status = DONE
                record.finished_at = time.time()
                record.result = result
                record.metrics = metrics
            self._condition.notify_all()

    def set_failed(self, report_id: str, error: str) -> None:
        with self._condition:
            record = self._records.get(report_id)
            if record is not None:
                record.status = FAILED
                record.finished_at = time.time()
                record.error = error
            self._condition.notify_all()

    # ----- waiting ----------------------------------------------------------

    def wait(self, report_id: str, timeout: Optional[float] = None) -> Optional[ReportRecord]:
        """Block until the report finishes (or ``timeout`` elapses);
        returns the record either way (``None`` for an unknown id)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                record = self._records.get(report_id)
                if record is None or record.status in _FINISHED:
                    return record
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return record
                self._condition.wait(remaining)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for record in self._records.values():
                out[record.status] = out.get(record.status, 0) + 1
            out["evicted"] = self.evicted
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
