"""Report serialization: JSON and SARIF-style output.

The paper emphasizes that value-flow paths give "concise bug reports
with a limited number of relevant statements and conditions" — these
serializers expose that structure to CI pipelines and IDEs (SARIF is the
de-facto interchange format for static-analysis results).

:func:`report_to_dict` is the one JSON encoding of a report:
:func:`report_to_json` dumps it, and the daemon's ``/reports/<id>``
result is this dict.  Its statistics are the run's metrics snapshot and appear nowhere
else in it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict

from ..ir.instructions import Instruction
from .base import BugReport

if TYPE_CHECKING:  # avoid a circular import; only needed for typing
    from ..analysis.driver import AnalysisReport

__all__ = ["report_to_dict", "report_to_json", "report_to_sarif"]

#: the layout of :func:`report_to_dict`
PAYLOAD_VERSION = 2

_RULE_DESCRIPTIONS = {
    "use-after-free": "A freed heap object may be dereferenced by another thread.",
    "double-free": "A heap object may be freed twice across threads.",
    "null-deref": "A NULL value stored by one thread may be dereferenced by another.",
    "info-leak": "A sensitive value may flow to a public sink through shared memory.",
    "data-race": (
        "Two threads may access a shared object in parallel, one of them"
        " writing, with no common lock."
    ),
    "atomicity-violation": (
        "Another thread may write a shared object between a read of it and"
        " the write that depends on that read."
    ),
    "order-violation": (
        "Another thread may read a value that its writer overwrites later,"
        " before the intended order publishes the final one."
    ),
}


def _endpoint(inst: Instruction) -> Dict:
    location = inst.location
    return {
        "label": inst.label,
        "statement": inst.brief(),
        "file": location.filename,
        "line": location.line,
        "column": location.column,
    }


def _bug_to_dict(bug: BugReport) -> Dict:
    return {
        "kind": bug.kind,
        "inter_thread": bug.inter_thread,
        "source": _endpoint(bug.source),
        "sink": _endpoint(bug.sink),
        "path": bug.path,
        "witness_order": dict(bug.witness_order),
        "witness_env": {k: dict(v) for k, v in bug.witness_env.items()},
        "statements": [
            {"label": s.label, "statement": s.brief(), "line": s.location.line}
            for s in bug.statements
        ],
    }


def report_to_dict(report: "AnalysisReport") -> Dict:
    """The whole analysis result as a JSON-ready dictionary."""
    return {
        "version": PAYLOAD_VERSION,
        "bugs": [_bug_to_dict(b) for b in report.bugs],
        "suppressed": [
            {
                "kind": s.kind,
                "source": _endpoint(s.source),
                "sink": _endpoint(s.sink),
                "reason": s.reason,
            }
            for s in report.suppressed
        ],
        "truncation_warnings": list(report.truncation_warnings),
        "degradation_warnings": list(report.degradation_warnings),
        "timed_out": report.timed_out,
        "metrics": report.metrics.snapshot(),
    }


def report_to_json(report: "AnalysisReport", indent: int = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True)


def report_to_sarif(report: "AnalysisReport") -> Dict:
    """A minimal SARIF 2.1.0 log with one result per finding."""
    kinds = sorted({b.kind for b in report.bugs} | set(_RULE_DESCRIPTIONS))
    rules = [
        {
            "id": kind,
            "shortDescription": {"text": _RULE_DESCRIPTIONS.get(kind, kind)},
        }
        for kind in kinds
    ]
    rule_index = {kind: i for i, kind in enumerate(kinds)}
    results = []
    for bug in report.bugs:
        results.append(
            {
                "ruleId": bug.kind,
                "ruleIndex": rule_index[bug.kind],
                "level": "error",
                "message": {
                    "text": (
                        f"{bug.kind}: value freed/defined at "
                        f"{bug.source.location} reaches "
                        f"{bug.sink.location}"
                        + (" across threads" if bug.inter_thread else "")
                    )
                },
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": bug.sink.location.filename},
                            "region": {
                                "startLine": max(1, bug.sink.location.line),
                                "startColumn": max(1, bug.sink.location.column),
                            },
                        }
                    }
                ],
                "codeFlows": [
                    {
                        "threadFlows": [
                            {
                                "locations": [
                                    {
                                        "location": {
                                            "physicalLocation": {
                                                "artifactLocation": {
                                                    "uri": s.location.filename
                                                },
                                                "region": {
                                                    "startLine": max(1, s.location.line)
                                                },
                                            },
                                            "message": {"text": s.brief()},
                                        }
                                    }
                                    for s in bug.statements
                                ]
                            }
                        ]
                    }
                ],
            }
        )
    return {
        "version": "2.1.0",
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "canary-repro",
                        "informationUri": "https://doi.org/10.1145/3453483.3454099",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
