"""Analysis-as-a-service: a long-lived daemon over the resident engine.

The one-shot CLI pays a cold Python process — start, import, parse,
lower, analyze, exit — for every invocation.  The server keeps one
process alive across requests and analyses every request from scratch,
exactly as a one-shot run would: a byte-identical re-submission runs
every pass again.

Three layers:

* :mod:`repro.server.registry` — report records and their lifecycle
  (``queued → running → done | failed``), bounded retention;
* :mod:`repro.server.service` — the bounded worker pool, request-scoped
  config isolation, per-request budgets, the server metrics registry;
* :mod:`repro.server.app` — the stdlib ``ThreadingHTTPServer`` HTTP/JSON
  face (``POST /analyze``, ``GET /reports/<id>``, ``GET /metrics``,
  ``GET /healthz``) and the ``repro serve`` entry point.

Correctness bar: a done record's result is the
:func:`~repro.checkers.report_to_dict` encoding of its report, and it
equals that of a one-shot run on the same source and config, wall-clock
numbers aside.
"""

from .registry import ReportRecord, ReportRegistry
from .service import AnalysisService

__all__ = ["AnalysisService", "ReportRecord", "ReportRegistry"]
