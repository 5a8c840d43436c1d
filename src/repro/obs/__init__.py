"""``repro.obs`` — the unified observability layer.

One tracer (:mod:`repro.obs.tracer`), one metrics registry
(:mod:`repro.obs.metrics`), three exporters (:mod:`repro.obs.export`)
and their schema validators (:mod:`repro.obs.schema`).  See
``docs/architecture.md`` §12 for the span taxonomy and metric naming
convention, and ``python -m repro.obs validate --help`` for the CI
schema gate.
"""

from .export import (
    read_trace_ndjson,
    run_meta,
    write_chrome_trace,
    write_metrics_json,
    write_trace_ndjson,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .schema import (
    SchemaError,
    validate_chrome_trace_file,
    validate_metrics_file,
    validate_trace_file,
)
from .tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "SchemaError",
    "Span",
    "Tracer",
    "read_trace_ndjson",
    "run_meta",
    "validate_chrome_trace_file",
    "validate_metrics_file",
    "validate_trace_file",
    "write_chrome_trace",
    "write_metrics_json",
    "write_trace_ndjson",
]
