"""Run digests and the portable report codec.

``run_digest`` keys the whole-run cache: the source text, the filename
and the config hash.

``report_to_portable`` / ``report_from_portable`` translate an
:class:`~repro.analysis.driver.AnalysisReport` to/from a JSON-safe dict
keyed entirely by instruction labels, which are deterministic per source
text (per-function label blocks).  This is the result payload of the
daemon's ``/reports/<id>`` and, with :func:`named_instructions` beside
it, the record format of the run cache: a hit rehydrates from the few
instructions the record names, never from a module.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping

from ..ir.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import AnalysisReport

__all__ = [
    "named_instructions",
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


def named_instructions(report: "AnalysisReport") -> Dict[int, Instruction]:
    """Label -> instruction for every instruction the report's findings
    name: each bug's source, sink and statements and each suppressed
    candidate's source and sink.  This is all
    :func:`report_from_portable` reads, so a run-cache record keeps
    these few instructions alive instead of the whole module."""
    named: Dict[int, Instruction] = {}
    for bug in report.bugs:
        for inst in (bug.source, bug.sink, *bug.statements):
            named[inst.label] = inst
    for candidate in report.suppressed:
        named[candidate.source.label] = candidate.source
        named[candidate.sink.label] = candidate.sink
    return named


def report_from_portable(
    data: dict, instructions: Mapping[int, Instruction], metrics=None
) -> "AnalysisReport":
    """Rehydrate a portable report from ``instructions``, a label ->
    instruction map covering every label the record names (see
    :func:`named_instructions`).  Every container of the result is
    fresh, so the record can be rehydrated again."""
    from ..checkers.base import BugReport, SuppressedCandidate
    from .driver import AnalysisReport

    bugs: List[BugReport] = [
        BugReport(
            kind=b["kind"],
            source=instructions[b["source"]],
            sink=instructions[b["sink"]],
            path=b["path"],
            inter_thread=b["inter_thread"],
            witness_order=dict(b["witness_order"]),
            witness_env={k: dict(v) for k, v in b["witness_env"].items()},
            statements=[instructions[label] for label in b["statements"]],
        )
        for b in data["bugs"]
    ]
    suppressed = [
        SuppressedCandidate(
            kind=s["kind"],
            source=instructions[s["source"]],
            sink=instructions[s["sink"]],
            reason=s["reason"],
        )
        for s in data["suppressed"]
    ]
    return AnalysisReport(
        bugs=bugs,
        suppressed=suppressed,
        vfg_summary=dict(data["vfg_summary"]),
        solver_statistics=dict(data["solver_statistics"]),
        checker_statistics={k: dict(v) for k, v in data["checker_statistics"].items()},
        search_statistics={k: dict(v) for k, v in data["search_statistics"].items()},
        truncation_warnings=list(data["truncation_warnings"]),
        degradation_warnings=list(data["degradation_warnings"]),
        timed_out=data["timed_out"],
        metrics=metrics,
    )
