"""The staged pass pipeline behind :class:`~repro.analysis.driver.Canary`.

Each phase of the paper's Fig. 1 — parse, bound/lower, IR verification,
pointer analysis, thread call graph, MHP, Alg. 1 data dependence,
Alg. 2 interference, per-checker detection — is a named *pass* run by a
:class:`PassManager` that records a uniform (status, seconds, detail)
row per pass.

One request is one whole analysis: every pass runs, and nothing a run
computes is reused by a later run except through the whole-run cache of
the :class:`~repro.analysis.artifacts.ArtifactStore`.  That cache is
keyed by the source text, filename and config hash and holds one record
format, the portable report: a memory hit rehydrates it against the
stored module without running any pass (status ``cached``), a disk hit
(``cache_dir``) runs ``parse`` and ``lower`` and then rehydrates it the
same way.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..checkers import ALL_CHECKERS, BugReport
from ..detection.reachability import SinkReachabilityIndex
from ..detection.realizability import RealizabilityChecker
from ..detection.search import SearchLimits
from ..frontend import parse_program
from ..frontend.ast_nodes import Program
from ..ir.module import IRModule
from ..ir.verifier import verify_module
from ..lowering import lower_program_incremental
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..pointer.steensgaard import steensgaard
from ..threads.callgraph import build_thread_call_graph
from ..threads.mhp import MhpAnalysis
from ..vfg.builder import VFGBundle
from ..vfg.dataflow import DataDependenceAnalysis
from ..vfg.graph import VFGNode
from ..vfg.interference import InterferenceAnalysis
from ..vfg.summaries import SummaryIndex, compute_summaries
from ..frontend import FrontendError
from ..testing.faults import fault_point
from .artifacts import ArtifactStore, VerdictCache
from .budget import Budget, BudgetExceededError
from .config import AnalysisConfig
from .driver import AnalysisReport
from .fingerprint import report_from_portable, report_to_portable, run_digest

__all__ = ["AnalysisPipeline", "PassManager", "PassRecord"]


@dataclass
class PassRecord:
    """One row of the pipeline's uniform pass accounting."""

    name: str
    status: str  # 'run' | 'cached' | 'failed'
    seconds: float = 0.0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "seconds": self.seconds,
            "detail": self.detail,
        }


class PassManager:
    """Runs named passes, timing each and recording a uniform row.

    Every pass is a fault-injection site (``pass:<name>``, see
    :mod:`repro.testing.faults`).  With a :class:`Budget` attached, a
    pass that overruns the *soft* per-pass budget gets a degradation
    warning (passes are not preemptible, so the overrun is informational
    only).  :meth:`attempt` additionally isolates a crashing pass:
    the exception is recorded as a ``failed`` row plus a warning, and
    the caller decides how much of the pipeline can still run.
    """

    def __init__(
        self, budget: Optional[Budget] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.records: List[PassRecord] = []
        self.budget = budget
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: graceful-degradation notes, surfaced on the final report
        self.warnings: List[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def run(self, name: str, fn, detail: str = "") -> Any:
        """Run one pass; exceptions propagate (use :meth:`attempt` for
        passes the pipeline can survive losing)."""
        result, error = self.attempt(name, fn, detail, _warn_on_failure=False)
        if error is not None:
            raise error
        return result

    def attempt(
        self, name: str, fn, detail: str = "", _warn_on_failure: bool = True
    ) -> Tuple[Any, Optional[BaseException]]:
        """Run one pass, isolating failure: returns ``(result, None)`` on
        success or ``(None, exception)`` after recording a ``failed``
        row — the pipeline keeps going with whatever can still run."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"pass:{name}"):
                fault_point(f"pass:{name}")
                result = fn()
        except BudgetExceededError:
            # Hard budget expiry / cancellation is control flow, not a
            # pass crash: converting it into a ``failed`` row plus a
            # degradation warning would report a cancelled run as a
            # degraded-but-complete one.  (KeyboardInterrupt and friends
            # are BaseException and never matched here to begin with.)
            raise
        except Exception as exc:
            seconds = time.perf_counter() - t0
            self.records.append(
                PassRecord(name, "failed", seconds, f"{type(exc).__name__}: {exc}")
            )
            if _warn_on_failure:
                self.warn(f"pass {name} failed ({type(exc).__name__}: {exc})")
            return None, exc
        seconds = time.perf_counter() - t0
        self.records.append(PassRecord(name, "run", seconds, detail))
        if self.budget is not None and self.budget.over_pass_budget(seconds):
            self.warn(
                f"pass {name}: {seconds:.3f}s exceeded the soft per-pass"
                f" budget ({self.budget.pass_seconds:g}s)"
            )
        return result, None

    def cached(self, name: str, detail: str = "") -> None:
        self.records.append(PassRecord(name, "cached", 0.0, detail))

    def record(self, name: str, status: str, seconds: float, detail: str = "") -> None:
        self.records.append(PassRecord(name, status, seconds, detail))

    # ----- reporting --------------------------------------------------------

    def seconds_of(self, *names: str) -> float:
        """Total wall time of passes whose name matches or is a
        ``name:`` prefix (e.g. ``dataflow`` sums every ``dataflow:f``)."""
        total = 0.0
        for rec in self.records:
            if rec.name in names or any(
                rec.name.startswith(n + ":") for n in names
            ):
                total += rec.seconds
        return total

    def counts(self) -> Dict[str, int]:
        run = sum(1 for r in self.records if r.status == "run")
        failed = sum(1 for r in self.records if r.status == "failed")
        counts = {"run": run, "cached": len(self.records) - run - failed}
        if failed:
            counts["failed"] = failed
        return counts

    def statistics(self) -> List[Dict[str, Any]]:
        return [r.as_dict() for r in self.records]


class AnalysisPipeline:
    """One analysis run, staged over the artifact store."""

    def __init__(
        self,
        config: AnalysisConfig,
        store: ArtifactStore,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.store = store
        # The run's resource budget: the wall clock starts here (the
        # driver builds a fresh pipeline per analyze_* call).
        self.budget = Budget.from_config(config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: the run's metrics registry — every statistic of this analysis
        #: (pass rows, solver/checker/search counters, cache counters,
        #: timings) lands here; the final report exposes it as
        #: ``report.metrics`` with the legacy accessors as views.
        self.registry = MetricsRegistry()
        self.pm = PassManager(budget=self.budget, tracer=self.tracer)

    # ----- entry points -----------------------------------------------------

    def analyze_source(
        self, source: str, filename: str = "<input>", track_memory: bool = False
    ) -> AnalysisReport:
        with self.tracer.span("analyze", file=filename, entry="source"):
            return self._analyze_source(source, filename, track_memory)

    def _analyze_source(
        self, source: str, filename: str, track_memory: bool
    ) -> AnalysisReport:
        cfg = self.config
        caching = cfg.use_cache and not track_memory
        events_mark = len(self.store.events)
        digest = run_digest(source, filename, cfg.cache_key())
        if caching:
            hit = self.store.get("run", digest)
            if hit is not None:
                return self._rehydrate(
                    hit["record"], hit["module"], events_mark, "run cache"
                )
        try:
            ast = self.pm.run("parse", lambda: parse_program(source, filename))
            module = self._lower(ast)
        except FrontendError:
            raise  # malformed input is the caller's problem, not degradation
        except BudgetExceededError:
            raise  # hard cancellation unwinds; it is not a frontend crash
        except Exception as exc:
            # An internal frontend crash (or an injected fault) still
            # yields a well-formed — empty, degraded — report.
            self.pm.warn(
                f"frontend failed unexpectedly ({type(exc).__name__}: {exc});"
                " no analysis was performed"
            )
            return self._degraded_empty_report(events_mark)
        if self._out_of_time("frontend"):
            return self._degraded_empty_report(events_mark)
        if caching and cfg.cache_dir:
            record = self.store.get_disk("run", digest)
            if record is not None:
                try:
                    report = self._rehydrate(
                        record, module, events_mark, "disk run cache"
                    )
                except KeyError:
                    self.store.note("stale disk:run")
                else:
                    self.store.put("run", digest, {"record": record, "module": module})
                    return report
        report = self._analyze_module(module, track_memory, events_mark)
        report.set_timing("parse", self.pm.seconds_of("parse"))
        report.set_timing("lowering", self.pm.seconds_of("lower"))
        # Degraded runs (budget expiry, isolated failures) are partial by
        # definition: caching them would pin the degradation.
        if caching and not report.timed_out and not report.degradation_warnings:
            record = report_to_portable(report)
            record["pass_statistics"] = report.pass_statistics
            self.store.put("run", digest, {"record": record, "module": module})
            if cfg.cache_dir:
                self.store.put_disk("run", digest, record)
        return report

    def analyze_ast(self, ast: Program, track_memory: bool = False) -> AnalysisReport:
        with self.tracer.span("analyze", entry="ast"):
            events_mark = len(self.store.events)
            module = self._lower(ast)
            report = self._analyze_module(module, track_memory, events_mark)
            report.set_timing("lowering", self.pm.seconds_of("lower"))
            return report

    def analyze_module(
        self, module: IRModule, track_memory: bool = False
    ) -> AnalysisReport:
        with self.tracer.span("analyze", entry="module"):
            return self._analyze_module(module, track_memory, len(self.store.events))

    # ----- run-cache hits ---------------------------------------------------

    def _rehydrate(
        self, record: dict, module: IRModule, events_mark: int, detail: str
    ) -> AnalysisReport:
        """A run-cache hit: ``record`` rehydrated against ``module``, with
        a ``cached`` row for every recorded pass that did not run here.
        Raises ``KeyError`` when the record names a label ``module``
        lacks (a stale disk entry)."""
        report = report_from_portable(record, module, metrics=self.registry)
        ran = {rec.name for rec in self.pm.records}
        for row in record.get("pass_statistics", ()):
            if row["name"] not in ran:
                self.pm.cached(row["name"], detail=detail)
        report.timings = {
            "parse": self.pm.seconds_of("parse"),
            "lowering": self.pm.seconds_of("lower"),
            "vfg": 0.0,
            "checking": 0.0,
            "solving": 0.0,
        }
        self._finish_report(report, events_mark)
        return report

    # ----- phases -----------------------------------------------------------

    def _lower(self, ast: Program) -> IRModule:
        module, _reused = self.pm.run(
            "lower",
            lambda: lower_program_incremental(ast, unroll_depth=self.config.unroll_depth),
        )
        self.pm.records[-1].detail = f"{len(module.functions)} function(s)"
        return module

    def _analyze_module(
        self, module: IRModule, track_memory: bool, events_mark: int
    ) -> AnalysisReport:
        cfg = self.config
        pm = self.pm
        budget = self.budget
        if track_memory:
            tracemalloc.start()

        # Result accumulators: every early return below (budget expiry,
        # unsurvivable pass failure) still produces a complete report
        # from whatever has been computed so far.
        bugs: List[BugReport] = []
        suppressed: List = []
        checker_statistics: Dict[str, Dict[str, int]] = {}
        search_statistics: Dict[str, Dict[str, int]] = {}
        truncation_warnings: List[str] = []
        bundle: Optional[VFGBundle] = None
        realizability: Optional[RealizabilityChecker] = None
        summary_index: Optional[SummaryIndex] = None

        def finish() -> AnalysisReport:
            if summary_index is not None:
                for key, value in summary_index.view.statistics().items():
                    self.registry.gauge(f"summary.{key}").set(value)
            peak = 0
            if track_memory:
                _current, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
            solver_stats = (
                dict(realizability.statistics) if realizability is not None else {}
            )
            degradation = list(pm.warnings)
            if realizability is not None:
                degradation.extend(realizability.degradation_summary())
            report = AnalysisReport(
                bugs=bugs,
                suppressed=suppressed,
                vfg_summary=bundle.summary() if bundle is not None else {},
                timings={
                    "vfg": (bundle.build_seconds if bundle is not None else 0.0)
                    + pm.seconds_of("verify"),
                    "checking": pm.seconds_of("detect"),
                    "solving": solver_stats.get("solve_seconds", 0.0),
                },
                peak_memory_bytes=peak,
                # solver.* counters are NOT re-seeded: the realizability
                # checker shares this run's registry and wrote them live.
                checker_statistics=checker_statistics,
                search_statistics=search_statistics,
                truncation_warnings=truncation_warnings,
                degradation_warnings=degradation,
                timed_out=bool(budget.expirations),
                bundle=bundle,
                metrics=self.registry,
            )
            self._finish_report(report, events_mark)
            return report

        verification, error = pm.attempt(
            "verify", lambda: verify_module(module, strict=False)
        )
        if error is None:
            pm.records[-1].detail = (
                f"{len(verification.errors)} error(s),"
                f" {len(verification.warnings)} warning(s)"
            )
        # verification is advisory (strict=False): a crash degrades, the
        # analysis itself continues.
        if self._out_of_time("verify"):
            return finish()

        # -- pointer / thread structure --------------------------------------
        pointsto, error = pm.attempt("pointer", lambda: steensgaard(module))
        if error is None:
            tcg, error = pm.attempt(
                "tcg", lambda: build_thread_call_graph(module, pointsto)
            )
        if error is None:
            mhp, error = pm.attempt("mhp", lambda: MhpAnalysis(tcg))
        if error is not None:
            # Everything downstream needs the thread structure; the
            # report stays empty but well-formed, with the failure
            # recorded in pass_statistics and degradation_warnings.
            pm.warn("thread-structure phase unavailable; no findings produced")
            return finish()
        if self._out_of_time("threads"):
            return finish()

        # -- Alg. 1 data dependence (per-function passes) --------------------
        dataflow = DataDependenceAnalysis(
            module,
            tcg,
            max_content_entries=cfg.max_content_entries,
            prune_guards=cfg.prune_guards,
            tracer=self.tracer,
        )
        try:
            with self.tracer.span("pass:dataflow"):
                fault_point("pass:dataflow")
                dataflow.run()
        except BudgetExceededError:
            raise  # hard cancellation unwinds; never a degradation warning
        except Exception as exc:
            pm.record("dataflow", "failed", 0.0, f"{type(exc).__name__}: {exc}")
            pm.warn(
                f"pass dataflow failed ({type(exc).__name__}: {exc});"
                " no findings produced"
            )
            return finish()
        for fname, status, seconds in dataflow.function_trace:
            pm.record(f"dataflow:{fname}", status, seconds)
        if self._out_of_time("dataflow"):
            return finish()

        # -- per-function value-flow summaries -----------------------------
        summary_index, error = pm.attempt(
            "summaries", lambda: compute_summaries(dataflow, metrics=self.registry)
        )
        if error is not None:
            # The summary layer is an accelerator: losing it degrades to
            # the whole-VFG fixpoint, never the findings.
            pm.warn("summary layer unavailable; interference runs unsharded")
            summary_index = None
        else:
            pm.records[-1].detail = f"{len(summary_index.summaries)} summaries"
        if self._out_of_time("summaries"):
            return finish()

        # -- Alg. 2 interference (always recomputed: global fixpoint) -------
        def run_interference() -> InterferenceAnalysis:
            analysis = InterferenceAnalysis(
                dataflow,
                mhp,
                max_rounds=cfg.max_interference_rounds,
                use_mhp=cfg.use_mhp,
                prune_guards=cfg.prune_guards,
                summary_index=summary_index,
                metrics=self.registry,
            )
            analysis.run()
            return analysis

        interference, error = pm.attempt("interference", run_interference)
        if error is not None:
            pm.warn("interference analysis unavailable; no findings produced")
            return finish()
        pm.records[-1].detail = (
            f"{interference.interference_edge_count} interference edge(s)"
        )
        if self._out_of_time("interference"):
            return finish()

        bundle = VFGBundle(
            module=module,
            vfg=dataflow.vfg,
            tcg=tcg,
            mhp=mhp,
            dataflow=dataflow,
            interference=interference,
            pointsto=pointsto,
            build_seconds=pm.seconds_of(
                "pointer", "tcg", "mhp", "dataflow", "summaries", "interference"
            ),
            summary_index=summary_index,
        )

        # -- detection ------------------------------------------------------
        lock_analysis = None
        if cfg.model_locks:
            from ..threads.locks import LockAnalysis

            lock_analysis = LockAnalysis(module)
        realizability = RealizabilityChecker(
            bundle,
            use_cube_and_conquer=cfg.cube_and_conquer,
            solver_max_conflicts=cfg.solver_max_conflicts,
            order_constraints=cfg.order_constraints,
            lock_analysis=lock_analysis,
            memory_model=cfg.memory_model,
            cache=VerdictCache(),
            solver_timeout=cfg.solver_timeout_seconds,
            budget=budget,
            metrics=self.registry,
            tracer=self.tracer,
        )
        limits = SearchLimits(
            max_depth=cfg.max_path_depth,
            max_paths_per_source=cfg.max_paths_per_source,
            max_visits=cfg.max_search_visits,
            context_depth=cfg.context_depth,
        )
        # Checkers with the same sink set share one reachability index.
        # The VFG no longer changes after interference, so an index built
        # here stays valid for the rest of the run.
        index_cache: Dict[Tuple[FrozenSet[VFGNode], int], SinkReachabilityIndex] = {}
        for name in cfg.checkers:
            if self._out_of_time(f"detect:{name}"):
                return finish()
            checker = ALL_CHECKERS[name](
                bundle,
                limits=limits,
                realizability=realizability,
                inter_thread_only=cfg.inter_thread_only,
                max_reports_per_source=cfg.max_reports_per_source,
                collect_suppressed=cfg.collect_suppressed,
                index_cache=index_cache,
                budget=budget,
                tracer=self.tracer,
            )
            found, error = pm.attempt(f"detect:{name}", checker.run)
            if error is not None:
                # One crashing checker never takes down the others.
                pm.warn(f"checker {name}: its findings are omitted")
                continue
            pm.records[-1].detail = f"{len(found)} report(s)"
            bugs.extend(found)
            suppressed.extend(checker.suppressed)
            checker_statistics[name] = dict(checker.statistics)
            search_statistics[name] = checker.search_stats.as_dict()
            truncation_warnings.extend(
                f"{name}: {event.describe()}" for event in checker.truncation_events
            )
            undecided = checker.statistics.get("undecided", 0)
            if undecided:
                pm.warn(
                    f"checker {name}: {undecided} candidate(s) undecided"
                    " (solver budget exhausted before a verdict)"
                )
        return finish()

    # ----- helpers ----------------------------------------------------------

    def _out_of_time(self, where: str) -> bool:
        """Cooperative wall-budget check at a pass boundary; records the
        observation point on expiry so the report can say where the run
        wound down."""
        return self.budget.note_expired(where)

    def _degraded_empty_report(self, events_mark: int) -> AnalysisReport:
        """A well-formed empty report for runs that could not get past
        the frontend (crash or budget expiry before lowering finished)."""
        report = AnalysisReport(
            timings={
                "parse": self.pm.seconds_of("parse"),
                "lowering": self.pm.seconds_of("lower"),
            },
            degradation_warnings=list(self.pm.warnings),
            timed_out=bool(self.budget.expirations),
            metrics=self.registry,
        )
        self._finish_report(report, events_mark)
        return report

    def _finish_report(self, report: AnalysisReport, events_mark: int) -> None:
        report.pass_statistics = self.pm.statistics()
        report.cache_statistics = {
            **self.store.statistics(),
            **self.pm.counts(),
        }
        if self.config.explain_cache:
            report.cache_events = list(self.store.events[events_mark:])
