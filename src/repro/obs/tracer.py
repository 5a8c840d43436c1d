"""Hierarchical trace spans for the analysis pipeline.

A :class:`Tracer` produces nested :class:`Span`\\ s — ``analyze`` →
``pass:<name>`` → ``dataflow:<fn>`` / ``enumerate`` → ``solver.query`` →
``solver.solve`` — with parentage tracked per thread.  The design goals,
in order:

1. **zero overhead when off** — the default tracer is disabled; its
   ``span()`` returns a shared no-op singleton (no allocation, no lock),
   so instrumented code pays one attribute check per site;
2. **exporter-agnostic** — finished spans are plain data; the exporters
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
from typing import Any, Dict, List, Optional

__all__ = ["NULL_TRACER", "Span", "Tracer"]


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

    def span(self, name: str, **attrs):
        """Open a span as a context manager, parented under the innermost
        open span of the calling thread."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(name, self.trace_id, self._next_id(), parent_id, tracer=self)
        for key, value in attrs.items():
            span.set(key, value)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.finished.append(span)

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
