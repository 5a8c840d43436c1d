"""The metrics registry: the single home for analysis statistics.

Naming convention (documented in ``docs/architecture.md`` §12): dotted
lowercase ``<component>.<metric>`` — ``solver.queries``,
``passes.run``, ``cache.hits`` — with optional labels for per-checker
or per-phase breakdowns (``search.visits{checker=use-after-free}``).

Four instrument kinds:

* :class:`Counter` — monotonically accumulating int/float (``add``);
* :class:`Gauge` — last-write-wins value (``set``);
* :class:`Histogram` — running count/sum/min/max of observations;
* *series* — an ordered list of structured rows (the pass table), for
  data that is tabular rather than scalar.

Everything is thread-safe (one registry lock; instruments are touched
under it), and :meth:`MetricsRegistry.snapshot` flattens the whole
registry into the JSON schema the exporters and the bench runner share.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: label set rendered into a stable instrument key
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically accumulating value (int stays int; adding a float
    promotes, so ``solver.solve_seconds`` naturally reads as a float)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey, initial=0) -> None:
        self.name = name
        self.labels = labels
        self.value = initial

    def add(self, delta=1) -> None:
        self.value += delta


class Gauge:
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey, initial=0) -> None:
        self.name = name
        self.labels = labels
        self.value = initial

    def set(self, value) -> None:
        self.value = value


class Histogram:
    __slots__ = ("name", "labels", "count", "total", "min", "max")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class MetricsRegistry:
    """Counters, gauges, histograms and row-series under one namespace.

    Instruments are created on first touch and keep insertion order, so
    a view lists its keys in the order the run wrote them.  One registry
    spans one analysis run (the pipeline creates and fills it, the
    :class:`~repro.analysis.driver.AnalysisReport` exposes it as
    ``report.metrics``, and the report's ``*_statistics`` accessors are
    views over it).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}
        self._series: Dict[str, List[Dict[str, Any]]] = {}

    # ----- instrument access -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
            return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, key[1])
            return inst

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, key[1])
            return inst

    # ----- convenience -------------------------------------------------------

    def inc(self, name: str, delta=1, **labels) -> None:
        counter = self.counter(name, **labels)
        with self._lock:
            counter.add(delta)

    def set(self, name: str, value, **labels) -> None:
        gauge = self.gauge(name, **labels)
        with self._lock:
            gauge.set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        hist = self.histogram(name, **labels)
        with self._lock:
            hist.observe(value)

    def value(self, name: str, default=None, **labels):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key) or self._gauges.get(key)
            return inst.value if inst is not None else default

    # ----- series (structured rows, e.g. the pass table) --------------------

    def series(self, name: str) -> List[Dict[str, Any]]:
        """The live row list for ``name`` (created empty on first use)."""
        with self._lock:
            rows = self._series.get(name)
            if rows is None:
                rows = self._series[name] = []
            return rows

    def append(self, series_name: str, **row) -> None:
        # first parameter deliberately not called ``name``: rows of the
        # pass table carry a ``name`` column of their own
        with self._lock:
            self._series.setdefault(series_name, []).append(row)

    # ----- views -------------------------------------------------------------

    def namespace(self, prefix: str, label: Optional[Tuple[str, str]] = None) -> Dict[str, Any]:
        """Plain ``{suffix: value}`` dict of every counter/gauge under
        ``prefix.``, optionally filtered to one ``(label, value)`` pair.
        Insertion order is preserved: keys come in the order they were
        first written."""
        dot = prefix + "."
        want = (label[0], str(label[1])) if label is not None else None
        out: Dict[str, Any] = {}
        with self._lock:
            for inst in list(self._counters.values()) + list(self._gauges.values()):
                if not inst.name.startswith(dot):
                    continue
                if want is not None and want not in inst.labels:
                    continue
                if want is None and inst.labels:
                    continue
                out[inst.name[len(dot):]] = inst.value
        return out

    def label_values(self, prefix: str, label: str) -> List[str]:
        """Distinct values of ``label`` among instruments under
        ``prefix.`` in first-seen order (e.g. the checkers that reported
        ``search.*`` counters)."""
        dot = prefix + "."
        seen: Dict[str, None] = {}
        with self._lock:
            for inst in list(self._counters.values()) + list(self._gauges.values()):
                if inst.name.startswith(dot):
                    for k, v in inst.labels:
                        if k == label and v not in seen:
                            seen[v] = None
        return list(seen)

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry into this one (per-request scoping).

        Each analysis run owns a private registry; a long-lived server
        folds every finished run into its aggregate so ``/metrics``
        reflects cumulative traffic while per-report registries stay
        isolated.  Counters accumulate, gauges take the newer value,
        histograms merge their summaries; series (the pass table) are
        per-run by nature and deliberately not merged.  ``prefix`` (e.g.
        ``"runs."``) namespaces the folded instruments.
        """
        with other._lock:
            counters = [(c.name, c.labels, c.value) for c in other._counters.values()]
            gauges = [(g.name, g.labels, g.value) for g in other._gauges.values()]
            hists = [
                (h.name, h.labels, h.count, h.total, h.min, h.max)
                for h in other._histograms.values()
            ]
        with self._lock:
            for name, labels, value in counters:
                key = (prefix + name, labels)
                inst = self._counters.get(key)
                if inst is None:
                    inst = self._counters[key] = Counter(key[0], labels)
                inst.add(value)
            for name, labels, value in gauges:
                key = (prefix + name, labels)
                inst = self._gauges.get(key)
                if inst is None:
                    inst = self._gauges[key] = Gauge(key[0], labels)
                inst.set(value)
            for name, labels, count, total, mn, mx in hists:
                key = (prefix + name, labels)
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = Histogram(key[0], labels)
                hist.count += count
                hist.total += total
                if mn is not None:
                    hist.min = mn if hist.min is None else min(hist.min, mn)
                if mx is not None:
                    hist.max = mx if hist.max is None else max(hist.max, mx)

    def snapshot(self) -> Dict[str, Any]:
        """The flat ``{rendered-name: value}`` dict of the whole
        registry — the metrics-JSON schema (see docs).  Histograms
        expand to ``.count/.sum/.min/.max``; series are included as
        lists of rows under their bare name."""
        out: Dict[str, Any] = {}
        with self._lock:
            for inst in self._counters.values():
                out[_render(inst.name, inst.labels)] = inst.value
            for inst in self._gauges.values():
                out[_render(inst.name, inst.labels)] = inst.value
            for hist in self._histograms.values():
                for suffix, value in hist.summary().items():
                    out[_render(f"{hist.name}.{suffix}", hist.labels)] = value
            for name, rows in self._series.items():
                out[name] = [dict(r) for r in rows]
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
                + len(self._series)
            )
