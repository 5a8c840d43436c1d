"""The Canary driver: the full pipeline of the paper's Fig. 1.

``Canary.analyze_source`` runs parse → bound/lower → thread-modular VFG
construction (Alg. 1 + Alg. 2) → guarded source–sink checking, and
returns an :class:`AnalysisReport` with the confirmed bugs and the
phase-by-phase statistics used by the benchmarks.

The driver is a facade over the staged pass pipeline
(:mod:`repro.analysis.passes`): each phase is a named pass, and every
``analyze_*`` call runs every pass on its input, so a re-run of
identical input is analysed again from scratch.

Every run's statistics live in one
:class:`~repro.obs.metrics.MetricsRegistry` (``report.metrics``): the
solver counters, per-checker phase and enumeration counters, pass
table and phase timings all share a single namespace the
exporters (``--metrics-out``) and the bench runner dump uniformly.  The
pipeline writes them there as it runs; the report's accessors
(``solver_statistics``, ``checker_statistics``, ``search_statistics``,
``pass_statistics``, ``timings``, ...) are read-only *views* that shape
them as plain dicts for ``--stats`` and other consumers.  A driver can
also carry a :class:`~repro.obs.tracer.Tracer`
(``--trace-out``/``--trace-chrome``) for a per-span timeline of the
same run.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..checkers import BugReport
from ..ir.module import IRModule
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..vfg.builder import VFGBundle
from .config import AnalysisConfig

__all__ = ["Canary", "AnalysisReport"]

#: registry namespaces behind the report's statistics views
_NS_SOLVER = "solver"
_NS_TIME = "time"
_NS_VFG = "vfg"
_NS_CHECKER = "checker"
_NS_SEARCH = "search"
_SERIES_PASSES = "passes"


# ----- the collector during a run --------------------------------------------

_collector_lock = threading.Lock()
_runs_in_flight = 0
_caller_thresholds: Optional[tuple] = None


@contextmanager
def quiet_collector() -> Iterator[None]:
    """Turn automatic collection off (a gen-0 threshold of 0) while at
    least one analysis runs in this process, and restore the caller's
    thresholds when the last one exits (on exceptions too).

    A run allocates a graph that stays alive until it returns and is
    freed by reference counting afterwards (runs leave no reference
    cycles; ``tests/test_memory.py``), so a collection during a run only
    re-traverses live objects.  Runs on concurrent threads (``repro
    serve`` workers) share one count, so cyclic garbage that another
    thread makes meanwhile waits until the last run exits.  A caller that
    turned automatic collection off with a zero threshold keeps it off.
    """
    global _runs_in_flight, _caller_thresholds
    with _collector_lock:
        if _runs_in_flight == 0:
            _caller_thresholds = gc.get_threshold()
            gc.set_threshold(0, *_caller_thresholds[1:])
        _runs_in_flight += 1
    try:
        yield
    finally:
        with _collector_lock:
            _runs_in_flight -= 1
            if _runs_in_flight == 0:
                gc.set_threshold(*_caller_thresholds)
                _caller_thresholds = None


class AnalysisReport:
    """The result of one Canary run: its findings and warnings, and its
    statistics in ``self.metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry` that the run filled);
    the statistics accessors below are read-only views over it.
    """

    def __init__(
        self,
        bugs: Optional[List[BugReport]] = None,
        suppressed: Optional[List] = None,
        truncation_warnings: Optional[List[str]] = None,
        degradation_warnings: Optional[List[str]] = None,
        timed_out: bool = False,
        bundle: Optional[VFGBundle] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        #: the single home of this run's statistics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bugs: List[BugReport] = list(bugs) if bugs else []
        #: solver-refuted candidates with reasons (when collect_suppressed)
        self.suppressed: List = list(suppressed) if suppressed else []
        #: soundness warnings: searches that hit a bound (enumeration truncated)
        self.truncation_warnings: List[str] = (
            list(truncation_warnings) if truncation_warnings else []
        )
        #: graceful-degradation notes: isolated pass/checker failures,
        #: budget-starved queries.  A non-empty list means the report is
        #: complete but was produced on a degraded pipeline.
        self.degradation_warnings: List[str] = (
            list(degradation_warnings) if degradation_warnings else []
        )
        #: the run's wall-clock budget expired: the report is partial (the
        #: passes and checkers that ran are accounted in pass_statistics)
        self.timed_out = timed_out
        #: the run's analysis (module, VFG, thread structure, points-to),
        #: only when the run was asked for it with ``keep_bundle=True``
        self.bundle = bundle

    # ----- registry-backed views ---------------------------------------------

    @property
    def vfg_summary(self) -> Dict[str, int]:
        return self.metrics.namespace(_NS_VFG)

    @property
    def timings(self) -> Dict[str, float]:
        return self.metrics.namespace(_NS_TIME)

    @property
    def solver_statistics(self) -> Dict[str, int]:
        return self.metrics.namespace(_NS_SOLVER)

    def _labelled_stats(self, prefix: str) -> Dict[str, Dict[str, int]]:
        return {
            name: self.metrics.namespace(prefix, label=("checker", name))
            for name in self.metrics.label_values(prefix, "checker")
        }

    @property
    def checker_statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-checker phase counts: checker name -> {sources, candidates, reports}."""
        return self._labelled_stats(_NS_CHECKER)

    @property
    def search_statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-checker enumeration counters (visits, prunes, memo hits, ...)."""
        return self._labelled_stats(_NS_SEARCH)

    @property
    def pass_statistics(self) -> List[Dict[str, Any]]:
        """Uniform per-pass rows: {name, status ('run'|'failed'),
        seconds, detail}."""
        return [dict(row) for row in self.metrics.series(_SERIES_PASSES)]

    # ----- derived ----------------------------------------------------------

    @property
    def num_reports(self) -> int:
        return len(self.bugs)

    def passes_run(self) -> List[str]:
        """Names of the passes that ran to completion (not failed)."""
        return [p["name"] for p in self.pass_statistics if p["status"] == "run"]

    def describe_statistics(self) -> str:
        """One-line solving summary for the CLI / logs."""
        s = self.solver_statistics
        timings = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(self.timings.items()))
        phases = "; ".join(
            f"{name}: {st.get('sources', 0)} sources / {st.get('candidates', 0)}"
            f" candidates / {st.get('reports', 0)} reports"
            for name, st in sorted(self.checker_statistics.items())
        )
        lines = [
            f"timings: {timings}",
            f"solver: {s.get('queries', 0)} queries"
            f" (sat {s.get('sat', 0)} / unsat {s.get('unsat', 0)}"
            f" / unknown {s.get('unknown', 0)}),"
            f" {s.get('solve_seconds', 0.0):.3f}s solving",
        ]
        if self.pass_statistics:
            lines.append(f"passes: {len(self.passes_run())} run")
        if phases:
            lines.append(f"checkers: {phases}")
        totals: Dict[str, int] = {}
        for st in self.search_statistics.values():
            for key, value in st.items():
                totals[key] = totals.get(key, 0) + value
        if totals:
            lines.append(
                f"enumeration: {totals.get('visits', 0)} nodes visited,"
                f" pruned {totals.get('pruned_unreachable', 0)} unreachable"
                f" / {totals.get('pruned_guard', 0)} guard-unsat,"
                f" {totals.get('memo_hits', 0)} dead-state memo hit(s)"
            )
        for warning in self.truncation_warnings:
            lines.append(f"warning: {warning}")
        for warning in self.degradation_warnings:
            lines.append(f"degraded: {warning}")
        if self.timed_out:
            lines.append("warning: analysis budget expired — partial results")
        return "\n".join(lines)

    def describe_passes(self) -> str:
        """The per-pass table (name, status, seconds) for the CLI."""
        width = max((len(p["name"]) for p in self.pass_statistics), default=4)
        lines = [f"{'pass':<{width}}  status  seconds"]
        for p in self.pass_statistics:
            line = f"{p['name']:<{width}}  {p['status']:<6}  {p['seconds']:7.3f}"
            if p.get("detail"):
                line += f"  {p['detail']}"
            lines.append(line)
        return "\n".join(lines)

    def describe(self) -> str:
        lines = [
            f"Canary: {self.num_reports} report(s)"
            f" — VFG {self.vfg_summary.get('vfg_nodes', 0)} nodes /"
            f" {self.vfg_summary.get('vfg_edges', 0)} edges,"
            f" {self.vfg_summary.get('interference_edges', 0)} interference edge(s)",
        ]
        for bug in self.bugs:
            lines.append(bug.describe())
        return "\n\n".join(lines)


class Canary:
    """Facade over the whole analysis.

    Each ``analyze_*`` call is one whole analysis of its input: runs of
    one instance share nothing but the config and the optional
    :class:`~repro.obs.tracer.Tracer`, which collects the span timeline
    across all runs of the instance.
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else AnalysisConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _pipeline(self):
        from .passes import AnalysisPipeline

        return AnalysisPipeline(self.config, tracer=self.tracer)

    def with_config(self, config: AnalysisConfig) -> "Canary":
        """A sibling driver with ``config`` and this one's tracer."""
        return Canary(config, tracer=self.tracer)

    # ----- pipeline entry points ---------------------------------------------
    #
    # Each entry point runs under :func:`quiet_collector`, so the
    # process-wide ``gc`` thresholds differ from the caller's while a run
    # is in flight.  The returned report holds the findings and the
    # statistics; ``keep_bundle=True`` also attaches the run's module,
    # VFG, thread structure and points-to result as ``report.bundle``.

    def analyze_source(
        self, source: str, filename: str = "<input>", keep_bundle: bool = False
    ) -> AnalysisReport:
        with quiet_collector():
            return self._pipeline().analyze_source(
                source, filename, keep_bundle=keep_bundle
            )

    def analyze_module(
        self, module: IRModule, keep_bundle: bool = False
    ) -> AnalysisReport:
        with quiet_collector():
            return self._pipeline().analyze_module(module, keep_bundle=keep_bundle)
