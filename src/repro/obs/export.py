"""Exporters: NDJSON spans, Chrome trace events, flat metrics JSON.

Three formats, one schema family (validated by :mod:`repro.obs.schema`):

* ``--trace-out`` — newline-delimited JSON, one span per line (the
  :meth:`~repro.obs.tracer.Span.as_dict` shape).  Greppable, streamable,
  lossless.
* ``--trace-chrome`` — the Chrome trace-event format (a JSON object with
  a ``traceEvents`` array of ``"ph": "X"`` complete events), loadable in
  ``chrome://tracing`` and Perfetto.  Spans keep their originating
  ``pid``/``tid``, and parentage is preserved in each event's ``args``.
* ``--metrics-out`` — ``{"meta": {...}, "metrics": {...}}`` where
  ``metrics`` is a flat :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

:func:`run_meta` builds the uniform ``meta`` block (git sha, python
version, platform, UTC timestamp, config digest) stamped into every
trace and metrics file, and into the ``meta.json`` that
``python -m repro.bench --artifacts DIR`` writes next to the evaluation
artifacts, so artifacts from different commits and CI matrix entries
stay distinguishable.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .metrics import MetricsRegistry
from .tracer import Span

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "run_meta",
    "spans_to_chrome_events",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_ndjson",
    "read_trace_ndjson",
]

TRACE_SCHEMA_VERSION = 1
METRICS_SCHEMA_VERSION = 1


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_meta(config_digest: Optional[str] = None, **extra) -> Dict[str, Any]:
    """The uniform provenance block stamped into every exported file."""
    meta: Dict[str, Any] = {
        "schema": METRICS_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if config_digest is not None:
        meta["config_digest"] = config_digest
    meta.update(extra)
    return meta


# ----- NDJSON spans ----------------------------------------------------------


def write_trace_ndjson(spans: Sequence[Span], path) -> int:
    """One JSON object per line; the first line is the meta record."""
    path = pathlib.Path(path)
    lines = [json.dumps({"meta": run_meta(), "kind": "trace"}, sort_keys=True)]
    for span in spans:
        lines.append(json.dumps(span.as_dict(), sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return len(spans)


def read_trace_ndjson(path) -> List[Dict[str, Any]]:
    """Parse an NDJSON trace back into span dicts (meta line skipped)."""
    records: List[Dict[str, Any]] = []
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if "meta" in obj and "span_id" not in obj:
            continue
        records.append(obj)
    return records


# ----- Chrome trace events ---------------------------------------------------


def spans_to_chrome_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for span in spans:
        end = span.end if span.end is not None else time.time()
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(":")[0].split(".")[0],
                "ph": "X",
                "ts": span.start * 1e6,  # microseconds, Chrome's unit
                "dur": max(0.0, (end - span.start) * 1e6),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: Sequence[Span], path) -> int:
    """A ``chrome://tracing`` / Perfetto-loadable trace file."""
    payload = {
        "traceEvents": spans_to_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": run_meta(),
    }
    pathlib.Path(path).write_text(json.dumps(payload, sort_keys=True))
    return len(payload["traceEvents"])


# ----- metrics JSON ----------------------------------------------------------


def write_metrics_json(
    path,
    registry: Optional[MetricsRegistry] = None,
    files: Optional[Dict[str, Dict[str, Any]]] = None,
    config_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """``{"meta": ..., "metrics": ...}`` — or, for a multi-file CLI run,
    ``{"meta": ..., "files": {path: metrics}}``."""
    doc: Dict[str, Any] = {"meta": run_meta(config_digest=config_digest)}
    if files is not None:
        doc["files"] = files
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    pathlib.Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
