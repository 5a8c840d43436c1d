"""Hierarchical trace spans for the analysis pipeline.

A :class:`Tracer` produces nested :class:`Span`\\ s — ``analyze`` →
``pass:<name>`` → ``dataflow:<fn>`` / ``enumerate`` → ``solver.query`` →
``solver.solve`` — with parentage tracked per thread.  The design goals,
in order:

1. **zero overhead when off** — the default tracer is disabled; its
   ``span()`` returns a shared no-op singleton (no allocation, no lock),
   so instrumented code pays one attribute check per site;
2. **detached spans** — a :class:`SpanContext` (trace id + span id)
   parents a :class:`SpanRecorder` (plain dicts, picklable) that the
   solver records into without touching the tracer; the tracer then
   :meth:`Tracer.ingest`\\ s the records under the submitting span;
3. **exporter-agnostic** — finished spans are plain data; the exporters
   in :mod:`repro.obs.export` turn them into newline-delimited JSON or
   Chrome trace events.

Timestamps are ``time.time()`` (epoch seconds): unlike ``perf_counter``
they are comparable across processes on one machine, which is what the
Chrome-trace timeline needs.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional

__all__ = ["NULL_TRACER", "Span", "SpanContext", "SpanRecorder", "Tracer"]


class SpanContext(NamedTuple):
    """The picklable coordinates of a live span — everything a worker
    process needs to parent its own spans under it."""

    trace_id: str
    span_id: str


class Span:
    """One finished (or in-flight) operation on the timeline."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "pid",
        "tid",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._tracer = tracer

    # recorded attributes must stay JSON-safe; coerce anything exotic
    def set(self, key: str, value: Any) -> "Span":
        if not isinstance(value, (str, int, float, bool, type(None))):
            value = repr(value)
        self.attrs[key] = value
        return self

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else time.time()) - self.start

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
        }

    # ----- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.set("error", f"{exc_type.__name__}: {exc}")
        if self._tracer is not None:
            self._tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """The disabled-tracing fast path: one shared, stateless no-op."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def context(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; thread-aware; cheap to consult when disabled.

    One tracer outlives many analysis runs (the CLI shares one across
    all input files); each root ``analyze`` span starts a fresh stack on
    its thread.  ``finished`` accumulates completed spans in end order —
    exporters sort as needed.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.trace_id = os.urandom(8).hex()
        self.finished: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ----- span lifecycle ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            return f"s{next(self._ids)}"

    def span(self, name: str, parent: Optional[SpanContext] = None, **attrs):
        """Open a span as a context manager.

        Parentage defaults to the innermost open span *of this thread*;
        pass ``parent`` explicitly to attach work running on a helper
        thread (e.g. enumeration producers) under its logical parent.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
        else:
            parent_id = stack[-1].span_id if stack else None
        span = Span(name, self.trace_id, self._next_id(), parent_id, tracer=self)
        for key, value in attrs.items():
            span.set(key, value)
        # Only thread-default-parented spans join the ambient stack: a
        # span explicitly parented elsewhere is not "current" here.
        if parent is None:
            stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.finished.append(span)

    def current_context(self) -> Optional[SpanContext]:
        """The innermost open span of the calling thread (for injection
        into worker payloads); ``None`` when disabled or at top level."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1].context() if stack else None

    # ----- cross-process ingestion -------------------------------------------

    def recorder(self, parent: Optional[SpanContext] = None) -> Optional["SpanRecorder"]:
        """A picklable recorder parented under the current span (or the
        given context); ``None`` when tracing is off."""
        if not self.enabled:
            return None
        return SpanRecorder(parent if parent is not None else self.current_context())

    def ingest(self, records: List[Dict[str, Any]]) -> int:
        """Adopt spans recorded elsewhere (worker process or recorder).

        Each record is re-identified with this tracer's ids; records keep
        their own parent linkage (``parent`` indices into the batch) and
        fall back to the record's ``parent_ctx`` span id, so a worker's
        nested spans arrive as a correctly shaped subtree."""
        if not self.enabled or not records:
            return 0
        assigned: Dict[int, str] = {}
        adopted: List[Span] = []
        for i, rec in enumerate(records):
            span = Span.__new__(Span)
            span.name = rec["name"]
            span.trace_id = self.trace_id
            span.span_id = self._next_id()
            parent_idx = rec.get("parent_index")
            if parent_idx is not None and parent_idx in assigned:
                span.parent_id = assigned[parent_idx]
            else:
                ctx = rec.get("parent_ctx")
                span.parent_id = ctx[1] if ctx else None
            span.start = rec["start"]
            span.end = rec["end"]
            span.attrs = dict(rec.get("attrs", {}))
            span.pid = rec.get("pid", os.getpid())
            span.tid = rec.get("tid", 0)
            span._tracer = None
            assigned[i] = span.span_id
            adopted.append(span)
        with self._lock:
            self.finished.extend(adopted)
        return len(adopted)

    # ----- convenience -------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        with self._lock:
            return [s for s in self.finished if s.name == name]

    def clear(self) -> None:
        with self._lock:
            self.finished.clear()


#: the module-wide disabled tracer every instrumented component defaults
#: to — sharing one instance keeps the off-path allocation-free.
NULL_TRACER = Tracer(enabled=False)


class _RecorderSpan:
    """One in-flight recorder span (worker-side)."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def set(self, key: str, value: Any) -> "_RecorderSpan":
        if not isinstance(value, (str, int, float, bool, type(None))):
            value = repr(value)
        self.recorder.records[self.index]["attrs"][key] = value
        return self

    def __enter__(self) -> "_RecorderSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        rec = self.recorder.records[self.index]
        if exc_type is not None:
            rec["attrs"]["error"] = f"{exc_type.__name__}: {exc}"
        rec["end"] = time.time()
        stack = self.recorder._stack
        if stack and stack[-1] == self.index:
            stack.pop()


class SpanRecorder:
    """Worker-side span collection: plain dicts, picklable both ways.

    Constructed in the parent from a :class:`SpanContext`, shipped with
    the payload, used in the worker, and the resulting ``records`` ride
    back with the result for :meth:`Tracer.ingest`.  Single-threaded by
    design (one recorder per payload)."""

    def __init__(self, parent_ctx: Optional[SpanContext]) -> None:
        self.parent_ctx = tuple(parent_ctx) if parent_ctx is not None else None
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs) -> _RecorderSpan:
        record = {
            "name": name,
            "parent_index": self._stack[-1] if self._stack else None,
            "parent_ctx": self.parent_ctx,
            "start": time.time(),
            "end": None,
            "attrs": {},
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        self.records.append(record)
        index = len(self.records) - 1
        self._stack.append(index)
        span = _RecorderSpan(self, index)
        for key, value in attrs.items():
            span.set(key, value)
        return span

    def record_span(self, name: str, start: float, end: float, **attrs) -> None:
        """Append an already-timed span without touching the stack.

        For work measured on helper threads (e.g. portfolio cubes) and
        reported back to the recorder's owning thread: the span parents
        under the owning thread's current span, but its timing is the
        helper's."""
        span_attrs: Dict[str, Any] = {}
        for key, value in attrs.items():
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = repr(value)
            span_attrs[key] = value
        self.records.append(
            {
                "name": name,
                "parent_index": self._stack[-1] if self._stack else None,
                "parent_ctx": self.parent_ctx,
                "start": start,
                "end": end,
                "attrs": span_attrs,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )
