"""The analysis service: a bounded worker pool over a report registry.

One :class:`AnalysisService` owns a pool of worker threads draining a
submission queue, the registry of their reports and the server's
aggregate metrics.  Each request is one whole analysis, isolated in
three ways:

* **config** — the request's knob overrides are folded into a fresh
  immutable :class:`~repro.analysis.config.AnalysisConfig`, whose hash
  is the report record's config digest.  The inert knob (``use_cache``)
  is rejected;
* **budget** — every run gets its own
  :class:`~repro.analysis.budget.Budget` (the request may tighten the
  server's default ``timeout_seconds``); :meth:`cancel` flips it so the
  run winds down cooperatively at the next observation point.  A
  bounded pool plus per-request budgets is the multi-tenant fairness
  story: no request can monopolize the daemon;
* **metrics** — each run writes its own
  :class:`~repro.obs.metrics.MetricsRegistry`; on completion the run
  registry is folded into the server aggregate under the ``runs.``
  prefix (:meth:`MetricsRegistry.merge`), so ``/metrics`` shows
  cumulative traffic while per-report snapshots stay request-scoped.

Requests share no analysis state: a byte-identical re-submission runs
every pass again, exactly as a one-shot run would, and requests for the
same file run in parallel like any others.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Any, Dict, List, Optional

from ..analysis.budget import Budget, BudgetExceededError
from ..analysis.config import INERT_FIELDS, AnalysisConfig
from ..analysis.driver import quiet_collector
from ..analysis.fingerprint import report_to_portable
from ..analysis.passes import AnalysisPipeline
from ..checkers import resolve_checker_names
from ..frontend import FrontendError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .registry import ReportRecord, ReportRegistry

__all__ = ["AnalysisService", "ConfigError"]


class ConfigError(ValueError):
    """A request carried an unknown or inert config knob."""


class AnalysisService:
    """The daemon's core: bounded workers + report registry."""

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        workers: int = 2,
        max_reports: int = 256,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else AnalysisConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = ReportRegistry(max_reports=max_reports)
        #: the server's aggregate registry (the ``/metrics`` payload)
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        self.num_workers = max(1, workers)
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._budgets: Dict[str, Budget] = {}
        self._lock = threading.Lock()
        self._shutdown = False
        self._threads: List[threading.Thread] = [
            threading.Thread(target=self._worker, name=f"canary-worker-{i}", daemon=True)
            for i in range(self.num_workers)
        ]
        for thread in self._threads:
            thread.start()
        self.metrics.gauge("server.workers").set(self.num_workers)

    # ----- request-scoped config -------------------------------------------

    def request_config(self, overrides: Optional[Dict[str, Any]] = None) -> AnalysisConfig:
        """The server default config with a request's knob overrides
        folded in.  Unknown names and inert (``use_cache``) names
        raise :class:`ConfigError` — a client typo must become a
        400, not a silently-default knob."""
        if not overrides:
            return self.config
        known = {f.name for f in dataclasses.fields(AnalysisConfig)}
        clean: Dict[str, Any] = {}
        for name, value in overrides.items():
            if name not in known:
                raise ConfigError(f"unknown config knob: {name!r}")
            if name in INERT_FIELDS:
                raise ConfigError(f"inert config knob: {name!r} (it has no effect)")
            if name == "checkers":
                if isinstance(value, str):
                    value = [c.strip() for c in value.split(",") if c.strip()]
                try:
                    value = resolve_checker_names(tuple(value))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            clean[name] = value
        try:
            return dataclasses.replace(self.config, **clean)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    # ----- submission -------------------------------------------------------

    def submit(
        self,
        source: str,
        filename: str = "<input>",
        overrides: Optional[Dict[str, Any]] = None,
    ) -> ReportRecord:
        """Enqueue one analysis request; returns the queued record."""
        if self._shutdown:
            raise RuntimeError("service is shut down")
        config = self.request_config(overrides)
        record = self.registry.create(filename, config.cache_key())
        self.metrics.inc("server.requests")
        self.metrics.gauge("server.queue_depth").set(self._queue.qsize() + 1)
        self._queue.put((record.id, source, filename, config))
        return record

    def analyze(
        self,
        source: str,
        filename: str = "<input>",
        overrides: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> ReportRecord:
        """Submit and block until the report finishes (test/CLI sugar)."""
        record = self.submit(source, filename, overrides)
        finished = self.registry.wait(record.id, timeout=timeout)
        return finished if finished is not None else record

    def cancel(self, report_id: str, reason: str = "cancelled by client") -> bool:
        """Cancel an in-flight run: its budget reads expired from the
        next cooperative check on, and the run winds down with a partial
        (``timed_out``) result.  Queued-but-unstarted requests cannot be
        cancelled yet and return ``False``."""
        with self._lock:
            budget = self._budgets.get(report_id)
        if budget is None:
            return False
        budget.cancel(reason)
        self.metrics.inc("server.cancelled")
        return True

    # ----- worker loop ------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            report_id, source, filename, config = item
            self.metrics.gauge("server.queue_depth").set(self._queue.qsize())
            self.registry.set_running(report_id)
            t0 = time.perf_counter()
            pipeline = AnalysisPipeline(config, tracer=self.tracer)
            with self._lock:
                self._budgets[report_id] = pipeline.budget
            try:
                with quiet_collector():
                    report = pipeline.analyze_source(source, filename=filename)
            except FrontendError as exc:
                self.registry.set_failed(report_id, f"frontend error: {exc}")
                self.metrics.inc("server.failed")
                continue
            except BudgetExceededError as exc:
                self.registry.set_failed(report_id, f"budget exceeded: {exc}")
                self.metrics.inc("server.failed")
                continue
            except Exception as exc:  # a crashed run must not kill the worker
                self.registry.set_failed(
                    report_id, f"internal error: {type(exc).__name__}: {exc}"
                )
                self.metrics.inc("server.failed")
                continue
            finally:
                with self._lock:
                    self._budgets.pop(report_id, None)
                self._queue.task_done()
            seconds = time.perf_counter() - t0
            result = report_to_portable(report)
            result["num_reports"] = report.num_reports
            result["pass_statistics"] = report.pass_statistics
            result["passes_run"] = report.passes_run()
            self.registry.set_done(report_id, result, metrics=report.metrics.snapshot())
            self.metrics.inc("server.completed")
            self.metrics.observe("server.analyze_seconds", seconds)
            self.metrics.merge(report.metrics, prefix="runs.")

    # ----- introspection ----------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: the server aggregate and report counts."""
        snapshot = self.metrics.snapshot()
        snapshot["server.uptime_seconds"] = time.time() - self.started_at
        for key, value in self.registry.counts().items():
            snapshot[f"server.reports_{key}"] = value
        return snapshot

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok" if not self._shutdown else "stopping",
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.num_workers,
            "queue_depth": self._queue.qsize(),
            "reports": len(self.registry),
        }

    # ----- lifecycle --------------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_inflight: bool = True) -> None:
        self._shutdown = True
        if cancel_inflight:
            with self._lock:
                budgets = list(self._budgets.values())
            for budget in budgets:
                budget.cancel("server shutdown")
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
