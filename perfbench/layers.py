"""Per-layer spans, recorded from outside the program.

:func:`install` rebinds the names the analysis orchestrator calls —
module-level functions looked up at call time, and methods on their
classes — to timing wrappers.  No program file changes.  Each wrapped
call opens a span (name, start, end, parent); a layer's metric is its
*self* time, the span's duration minus its child spans, so the self
times of one ``analyze_source`` call add up to its wall time.  A
``gc.callbacks`` hook charges every collection to the innermost open
span.  Counts are read from the wrapped calls' return values and public
fields.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute, span) — a span name ``x`` yields the metric ``x_s``
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.analysis.driver", "Canary.analyze_source", "analysis.driver"),
    ("repro.analysis.passes", "parse_program", "frontend.parse"),
    ("repro.lowering.lower", "unroll_loops", "lowering.unroll"),
    ("repro.analysis.passes", "lower_program_incremental", "lowering.lower"),
    ("repro.analysis.passes", "verify_module", "ir.verify"),
    ("repro.analysis.passes", "steensgaard", "pointer.steensgaard"),
    ("repro.analysis.passes", "build_thread_call_graph", "threads.tcg_mhp"),
    ("repro.analysis.passes", "MhpAnalysis", "threads.tcg_mhp"),
    ("repro.vfg.dataflow", "DataDependenceAnalysis.run", "vfg.dataflow"),
    ("repro.analysis.passes", "compute_summaries", "vfg.summaries"),
    ("repro.vfg.interference", "InterferenceAnalysis.run", "vfg.interference"),
    ("repro.checkers.base", "SourceSinkChecker.run", "detection.enumerate"),
    ("repro.detection.realizability", "RealizabilityChecker.formula_for", "detection.formula"),
    ("repro.detection.realizability", "RealizabilityChecker.check_formula", "smt.solve"),
    ("repro.detection.realizability", "solve_formula", "smt.solve"),
]

#: spans whose garbage-collection share is reported as ``<span>_gc_s``
GC_SPANS = (
    "frontend.parse", "lowering.unroll", "lowering.lower",
    "vfg.dataflow", "vfg.summaries",
)

SPAN_NAMES = sorted({span for _m, _a, span in TARGETS})

#: counts the exit hooks below accumulate
COUNTS = (
    "analysis.passes", "analysis.passes_cached", "frontend.lines",
    "lowering.ir_instructions", "lowering.functions_reused",
    "vfg.functions_replayed", "vfg.summaries", "vfg.nodes", "vfg.edges",
    "vfg.interference_edges", "detection.candidates", "detection.visits",
    "smt.queries", "smt.solves", "smt.sat",
)


def percentile(values: List[float], pct: int) -> float:
    """Inclusive-method percentile; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Recorder:
    """Open spans, finished spans and counts of one child process."""

    def __init__(self) -> None:
        self.enabled = False
        #: finished spans: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[list] = []  # [index, name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.gc_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.query_ms: List[float] = []
        self.gen2 = 0
        self._gc_t0 = 0.0

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self._stack.append([len(self.spans), name, start, 0.0])
        self.spans.append([name, start, 0.0, parent])

    def close(self) -> float:
        end = time.perf_counter()
        index, name, start, child_s = self._stack.pop()
        duration = end - start
        self.spans[index][2] = end
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        owner = self._stack[-1][1] if self._stack else "outside"
        self.gc_s[owner] += time.perf_counter() - self._gc_t0
        if info.get("generation") == 2:
            self.gen2 += 1

    def raw(self) -> Dict[str, Any]:
        """What one child accumulated since reset, as plain data."""
        return {
            "self_s": dict(self.self_s),
            "gc_s": dict(self.gc_s),
            "counts": dict(self.counts),
            "query_ms": list(self.query_ms),
            "gen2": self.gen2,
        }


def layer_metrics(raws: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one rep from its children's :meth:`Recorder.raw`."""
    self_s: Dict[str, float] = defaultdict(float)
    gc_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
    query_ms: List[float] = []
    for raw in raws:
        for key, value in raw["self_s"].items():
            self_s[key] += value
        for key, value in raw["gc_s"].items():
            gc_s[key] += value
        for key, value in raw["counts"].items():
            counts[key] += value
        query_ms += raw["query_ms"]
    out: Dict[str, float] = {f"{name}_s": self_s[name] for name in SPAN_NAMES}
    for name in GC_SPANS:
        out[f"{name}_gc_s"] = gc_s[name]
    out.update(counts)
    out["runtime.gc_s"] = sum(gc_s.values())
    out["runtime.gc_gen2_collections"] = sum(raw["gen2"] for raw in raws)
    solves = counts["smt.solves"]
    out["smt.sat_share"] = counts["smt.sat"] / solves if solves else 0.0
    out["smt.query_p50_ms"] = percentile(query_ms, 50)
    out["smt.query_p90_ms"] = percentile(query_ms, 90)
    parse_s = out["frontend.parse_s"]
    out["frontend.lines_per_s"] = counts["frontend.lines"] / parse_s if parse_s else 0.0
    passes = counts["analysis.passes"]
    out["analysis.passes_cached_share"] = (
        counts["analysis.passes_cached"] / passes if passes else 0.0
    )
    return out


# ----- counts read at span exit: hook(recorder, call args, result, seconds) ---


def _after_analyze(rec: Recorder, args, report, _s) -> None:
    rows = report.pass_statistics
    rec.counts["analysis.passes"] += len(rows)
    rec.counts["analysis.passes_cached"] += sum(1 for r in rows if r["status"] == "cached")


def _after_parse(rec: Recorder, args, _ast, _s) -> None:
    rec.counts["frontend.lines"] += len(args[0].splitlines())


def _after_lower(rec: Recorder, args, result, _s) -> None:
    module, reused = result
    rec.counts["lowering.ir_instructions"] += module.size()
    rec.counts["lowering.functions_reused"] += len(reused)


def _after_dataflow(rec: Recorder, args, _vfg, _s) -> None:
    trace = args[0].function_trace
    rec.counts["vfg.functions_replayed"] += sum(1 for _f, status, _t in trace if status == "cached")


def _after_summaries(rec: Recorder, args, index, _s) -> None:
    rec.counts["vfg.summaries"] += len(index.summaries)


def _after_interference(rec: Recorder, args, vfg, _s) -> None:
    rec.counts["vfg.nodes"] += vfg.num_nodes
    rec.counts["vfg.edges"] += vfg.num_edges
    rec.counts["vfg.interference_edges"] += args[0].interference_edge_count


def _after_checker(rec: Recorder, args, _reports, _s) -> None:
    checker = args[0]
    rec.counts["detection.candidates"] += checker.statistics.get("candidates", 0)
    rec.counts["detection.visits"] += checker.search_stats.visits


def _after_check(rec: Recorder, args, _result, seconds) -> None:
    # A query answered from the verdict cache never reaches solve_formula.
    rec.counts["smt.queries"] += 1
    rec.query_ms.append(seconds * 1000.0)


def _after_solve(rec: Recorder, args, result, _s) -> None:
    rec.counts["smt.solves"] += 1
    rec.counts["smt.sat"] += result[0] == "sat"


AFTER: Dict[str, Callable] = {
    "Canary.analyze_source": _after_analyze,
    "parse_program": _after_parse,
    "lower_program_incremental": _after_lower,
    "DataDependenceAnalysis.run": _after_dataflow,
    "compute_summaries": _after_summaries,
    "InterferenceAnalysis.run": _after_interference,
    "SourceSinkChecker.run": _after_checker,
    "RealizabilityChecker.check_formula": _after_check,
    "solve_formula": _after_solve,
}


def _wrap(rec: Recorder, attr: str, span: str, fn: Callable) -> Callable:
    after = AFTER.get(attr)

    @functools.wraps(fn, updated=())
    def timed(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.close()
        if after is not None:
            after(rec, args, result, seconds)
        return result

    return timed


def _resolve(module_name: str, attr: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current value); raises naming the
    target when any part of it is missing."""
    target = f"{module_name}.{attr}"
    try:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # vars() of the owner itself: an inherited method is not the target.
        return owner, leaf, vars(owner)[leaf]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"wrap target {target} is missing ({exc!r})") from None


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target and hook the collector; returns the undo."""
    resolved = [(_resolve(m, a), a, span) for m, a, span in TARGETS]
    undo: List[Tuple[Any, str, Any]] = []
    for (owner, leaf, original), attr, span in resolved:
        setattr(owner, leaf, _wrap(rec, attr, span, original))
        undo.append((owner, leaf, original))
    gc.callbacks.append(rec.on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(rec.on_gc)
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall


def self_time_total(metrics: Dict[str, float]) -> float:
    """Sum of every span's self seconds, ``analysis.driver`` included."""
    return sum(metrics[f"{name}_s"] for name in SPAN_NAMES)
