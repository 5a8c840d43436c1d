"""Run digests and the portable report codec.

``run_digest`` keys the whole-run cache: the source text, the filename
and the config hash.

``report_to_portable`` / ``report_from_portable`` translate an
:class:`~repro.analysis.driver.AnalysisReport` to/from a JSON-safe dict
keyed entirely by instruction labels, which are deterministic per source
text (per-function label blocks).  This is the one record format of the
run cache: the memory layer rehydrates it against the module it stored
with it, the disk layer against a module a fresh process re-lowered
from the same source.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, List

from ..ir.module import IRModule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import AnalysisReport

__all__ = [
    "report_from_portable",
    "report_to_portable",
    "run_digest",
    "stable_digest",
]

PORTABLE_VERSION = 1


def stable_digest(parts: Iterable[str]) -> str:
    """A short, process-independent digest of an iterable of strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def run_digest(source: str, filename: str, config_key: str) -> str:
    """The whole-run cache key: source text + filename + config hash."""
    return stable_digest(["run", filename, config_key, source])


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


def report_from_portable(
    data: dict, module: IRModule, metrics=None
) -> "AnalysisReport":
    """Rehydrate a portable report against a module lowered from the
    same source.  Every container of the result is fresh, so the record
    can be rehydrated again.

    Raises ``KeyError`` when a recorded label no longer exists (stale
    cache entry) — callers treat that as a miss and re-analyze.
    """
    from ..checkers.base import BugReport, SuppressedCandidate
    from .driver import AnalysisReport

    if data.get("version") != PORTABLE_VERSION:
        raise KeyError("portable report version mismatch")
    bugs: List[BugReport] = [
        BugReport(
            kind=b["kind"],
            source=module.instruction_at(b["source"]),
            sink=module.instruction_at(b["sink"]),
            path=b["path"],
            inter_thread=b["inter_thread"],
            witness_order=dict(b.get("witness_order", {})),
            witness_env={k: dict(v) for k, v in b.get("witness_env", {}).items()},
            statements=[
                module.instruction_at(label) for label in b.get("statements", ())
            ],
        )
        for b in data.get("bugs", ())
    ]
    suppressed = [
        SuppressedCandidate(
            kind=s["kind"],
            source=module.instruction_at(s["source"]),
            sink=module.instruction_at(s["sink"]),
            reason=s["reason"],
        )
        for s in data.get("suppressed", ())
    ]
    return AnalysisReport(
        bugs=bugs,
        suppressed=suppressed,
        vfg_summary=dict(data.get("vfg_summary", {})),
        solver_statistics=dict(data.get("solver_statistics", {})),
        checker_statistics={
            k: dict(v) for k, v in data.get("checker_statistics", {}).items()
        },
        search_statistics={
            k: dict(v) for k, v in data.get("search_statistics", {}).items()
        },
        truncation_warnings=list(data.get("truncation_warnings", ())),
        degradation_warnings=list(data.get("degradation_warnings", ())),
        timed_out=bool(data.get("timed_out", False)),
        bundle=None,
        metrics=metrics,
    )
