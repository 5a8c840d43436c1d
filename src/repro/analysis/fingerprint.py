"""IR-level fingerprints and the portable report codec.

``module_skeleton`` hashes exactly the slice of a lowered module that the
pointer/thread-structure phases (Steensgaard → thread call graph → MHP)
depend on: the label layout, instruction opcodes, direct call/fork
targets, thread and mutex names.  Two modules with equal skeletons have
identical thread structure and — absent function pointers — identical
call resolution, so those phase artifacts can be reused even though
variable names (and hence most value-level content) differ between runs.

``report_to_portable`` / ``report_from_portable`` translate an
:class:`~repro.analysis.driver.AnalysisReport` to/from a JSON-safe dict
keyed entirely by instruction labels, which are deterministic per source
text (per-function label blocks): a fresh process can re-lower the same
source and rehydrate a cached report against its own module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..frontend.fingerprint import stable_digest
from ..ir.instructions import (
    CallInst,
    ForkInst,
    JoinInst,
    LockInst,
    SignalInst,
    UnlockInst,
    WaitInst,
)
from ..ir.module import IRModule
from ..ir.values import FunctionRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import AnalysisReport

__all__ = [
    "module_skeleton",
    "report_from_portable",
    "report_to_portable",
    "run_digest",
]

PORTABLE_VERSION = 1

def run_digest(source: str, filename: str, config_key: str) -> str:
    """The whole-run cache key: source text + filename + config hash."""
    return stable_digest(["run", filename, config_key, source])


def module_skeleton(module: IRModule) -> str:
    """Hash of the pointer/thread-structure-relevant slice of a module."""
    parts = [
        f"entry={module.entry}",
        "globals:" + ",".join(sorted(module.globals)),
        "externs:" + ",".join(sorted(module.externs)),
    ]
    indirect = False
    for name, func in module.functions.items():
        parts.append(f"fn:{name}/{len(func.params)}")
        for inst in func.body:
            enc = f"{inst.label}:{type(inst).__name__}"
            if isinstance(inst, (CallInst, ForkInst)):
                callee = inst.callee
                if isinstance(callee, FunctionRef):
                    enc += f":{callee.name}"
                else:
                    enc += ":?"
                    indirect = True
                if isinstance(inst, ForkInst):
                    enc += f":{inst.thread}"
            elif isinstance(inst, JoinInst):
                enc += f":{inst.thread}"
            elif isinstance(inst, (LockInst, UnlockInst)):
                enc += f":{inst.mutex}"
            elif isinstance(inst, (SignalInst, WaitInst)):
                enc += f":{inst.cond}"
            parts.append(enc)
    if indirect:
        # Function-pointer targets come from whole-module points-to facts,
        # and those facts are keyed by per-lowering Variable objects: the
        # cached triple answers queries correctly only for the exact same
        # lowered function objects.  Folding in their identities makes any
        # relowered function force the pointer phases to re-run.
        for name, func in module.functions.items():
            parts.append(f"obj:{name}:{id(func)}")
    return stable_digest(parts)


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
    """Rehydrate a portable report against a freshly lowered module.

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
            witness_env=dict(b.get("witness_env", {})),
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
