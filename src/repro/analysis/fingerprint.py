"""The portable report payload.

``report_to_portable`` translates an
:class:`~repro.analysis.driver.AnalysisReport` to a JSON-safe dict keyed
entirely by instruction labels, which are deterministic per source text
(per-function label blocks).  It is the result payload of the daemon's
``/reports/<id>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import AnalysisReport

__all__ = ["report_to_portable"]

PORTABLE_VERSION = 1


def report_to_portable(report: "AnalysisReport") -> dict:
    """Encode a report as a JSON-safe, label-keyed dict."""
    bugs = [
        {
            "kind": b.kind,
            "source": b.source.label,
            "sink": b.sink.label,
            "path": b.path,
            "inter_thread": b.inter_thread,
            "witness_order": dict(b.witness_order),
            "witness_env": {k: dict(v) for k, v in b.witness_env.items()},
            "statements": [s.label for s in b.statements],
        }
        for b in report.bugs
    ]
    suppressed = [
        {
            "kind": s.kind,
            "source": s.source.label,
            "sink": s.sink.label,
            "reason": s.reason,
        }
        for s in report.suppressed
    ]
    return {
        "version": PORTABLE_VERSION,
        "bugs": bugs,
        "suppressed": suppressed,
        "vfg_summary": dict(report.vfg_summary),
        "solver_statistics": dict(report.solver_statistics),
        "checker_statistics": {
            k: dict(v) for k, v in report.checker_statistics.items()
        },
        "search_statistics": {
            k: dict(v) for k, v in report.search_statistics.items()
        },
        "truncation_warnings": list(report.truncation_warnings),
        "degradation_warnings": list(report.degradation_warnings),
        "timed_out": report.timed_out,
    }
