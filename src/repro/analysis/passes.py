"""The staged pass pipeline behind :class:`~repro.analysis.driver.Canary`.

Each phase of the paper's Fig. 1 — parse, bound/lower, IR verification,
pointer analysis, thread call graph, MHP, Alg. 1 data dependence,
Alg. 2 interference, per-checker detection — is a named *pass* run by a
:class:`PassManager` that records a uniform (name, status, seconds,
detail) row per pass in the run's ``passes`` metrics series.

The pipeline writes every statistic of the run into its
:class:`~repro.obs.metrics.MetricsRegistry` as it goes and hands that
registry to the :class:`~repro.analysis.driver.AnalysisReport` it
returns; the report's statistics accessors are views over it.

One request is one whole analysis: every pass runs, and nothing a run
computes is reused by a later run.

A finished run returns a report that holds its findings and statistics
and nothing of the analysis: the module, VFG, thread structure and
points-to result are freed by reference counting as the run returns.  A
caller that reads them passes ``keep_bundle=True`` to get them on
``report.bundle``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..checkers import ALL_CHECKERS, BugReport
from ..detection.reachability import SinkReachabilityIndex
from ..detection.realizability import RealizabilityChecker
from ..detection.search import SearchLimits
from ..frontend import parse_program
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
from ..vfg.summaries import compute_summaries
from ..frontend import FrontendError
from ..testing.faults import fault_point
from .budget import Budget, BudgetExceededError
from .config import AnalysisConfig
from .driver import AnalysisReport

__all__ = ["AnalysisPipeline", "PassManager"]


class PassManager:
    """Runs named passes, timing each and recording a uniform row
    ``{name, status ('run'|'failed'), seconds, detail}`` in the
    ``passes`` series of ``registry``.

    Every pass is a fault-injection site (``pass:<name>``, see
    :mod:`repro.testing.faults`).  With a :class:`Budget` attached, a
    pass that overruns the *soft* per-pass budget gets a degradation
    warning (passes are not preemptible, so the overrun is informational
    only).  :meth:`attempt` additionally isolates a crashing pass:
    the exception is recorded as a ``failed`` row plus a warning, and
    the caller decides how much of the pipeline can still run.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        budget: Optional[Budget] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        #: the live pass table (the report's ``pass_statistics`` view)
        self.rows: List[Dict[str, Any]] = registry.series("passes")
        self.budget = budget
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: graceful-degradation notes, surfaced on the final report
        self.warnings: List[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def run(self, name: str, fn, detail: str = "") -> Any:
        """Run one pass; exceptions propagate (use :meth:`attempt` for
        passes the pipeline can survive losing)."""
        return self.attempt(name, fn, detail, _isolate=False)[0]

    def attempt(
        self, name: str, fn, detail: str = "", _isolate: bool = True
    ) -> Tuple[Any, bool]:
        """Run one pass, isolating failure: returns ``(result, True)`` on
        success or ``(None, False)`` after recording a ``failed`` row and
        a warning — the pipeline keeps going with whatever can still run.

        The exception itself is not returned: its traceback holds this
        frame and, through it, the caller's, so a caller that kept it in
        a local would make its whole run cyclic garbage."""
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
            self._row(name, "failed", seconds, f"{type(exc).__name__}: {exc}")
            if not _isolate:
                raise
            self.warn(f"pass {name} failed ({type(exc).__name__}: {exc})")
            return None, False
        seconds = time.perf_counter() - t0
        self._row(name, "run", seconds, detail)
        if self.budget is not None and self.budget.over_pass_budget(seconds):
            self.warn(
                f"pass {name}: {seconds:.3f}s exceeded the soft per-pass"
                f" budget ({self.budget.pass_seconds:g}s)"
            )
        return result, True

    def _row(self, name: str, status: str, seconds: float, detail: str) -> None:
        self.rows.append(
            {"name": name, "status": status, "seconds": seconds, "detail": detail}
        )

    # ----- reporting --------------------------------------------------------

    def seconds_of(self, *names: str) -> float:
        """Total wall time of passes whose name matches or is a
        ``name:`` prefix (e.g. ``detect`` sums every ``detect:<checker>``)."""
        total = 0.0
        for row in self.rows:
            if row["name"] in names or any(
                row["name"].startswith(n + ":") for n in names
            ):
                total += row["seconds"]
        return total


class AnalysisPipeline:
    """One analysis run."""

    def __init__(
        self,
        config: AnalysisConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        # The run's resource budget: the wall clock starts here (the
        # driver builds a fresh pipeline per analyze_* call).
        self.budget = Budget.from_config(config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: the run's metrics registry — every statistic of this analysis
        #: (pass rows, solver/checker/search counters, timings) lands
        #: here; the final report exposes it as ``report.metrics`` with
        #: the statistics accessors as views.
        self.registry = MetricsRegistry()
        self.pm = PassManager(self.registry, budget=self.budget, tracer=self.tracer)

    # ----- entry points -----------------------------------------------------

    def analyze_source(
        self, source: str, filename: str = "<input>", keep_bundle: bool = False
    ) -> AnalysisReport:
        with self.tracer.span("analyze", file=filename, entry="source"):
            return self._analyze_source(source, filename, keep_bundle)

    def _analyze_source(
        self, source: str, filename: str, keep_bundle: bool
    ) -> AnalysisReport:
        cfg = self.config
        try:
            ast = self.pm.run("parse", lambda: parse_program(source, filename))
            module, _reused = self.pm.run(
                "lower",
                lambda: lower_program_incremental(ast, unroll_depth=cfg.unroll_depth),
            )
            self.pm.rows[-1]["detail"] = f"{len(module.functions)} function(s)"
            # The IR shares only Locations with the AST: dropping it here
            # frees the tree before the passes that never read it.
            del ast
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
            return self._degraded_empty_report()
        if self._out_of_time("frontend"):
            return self._degraded_empty_report()
        report = self._analyze_module(module, keep_bundle)
        self.registry.set("time.parse", self.pm.seconds_of("parse"))
        self.registry.set("time.lowering", self.pm.seconds_of("lower"))
        return report

    def analyze_module(
        self, module: IRModule, keep_bundle: bool = False
    ) -> AnalysisReport:
        with self.tracer.span("analyze", entry="module"):
            return self._analyze_module(module, keep_bundle)

    # ----- phases -----------------------------------------------------------

    def _analyze_module(self, module: IRModule, keep_bundle: bool) -> AnalysisReport:
        cfg = self.config
        pm = self.pm
        budget = self.budget
        registry = self.registry

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

        def finish() -> AnalysisReport:
            # solver.* counters are not written here: the realizability
            # checker shares this run's registry and wrote them live.
            degradation = list(pm.warnings)
            if realizability is not None:
                degradation.extend(realizability.degradation_summary())
            if bundle is not None:
                for key, value in bundle.summary().items():
                    registry.set(f"vfg.{key}", value)
            registry.set(
                "time.vfg",
                (bundle.build_seconds if bundle is not None else 0.0)
                + pm.seconds_of("verify"),
            )
            registry.set("time.checking", pm.seconds_of("detect"))
            registry.set("time.solving", registry.value("solver.solve_seconds", 0.0))
            for prefix, per_checker in (
                ("checker", checker_statistics),
                ("search", search_statistics),
            ):
                for name, stats in per_checker.items():
                    for key, value in stats.items():
                        registry.inc(f"{prefix}.{key}", value, checker=name)
            return AnalysisReport(
                bugs=bugs,
                suppressed=suppressed,
                truncation_warnings=truncation_warnings,
                degradation_warnings=degradation,
                timed_out=bool(budget.expirations),
                bundle=bundle if keep_bundle else None,
                metrics=registry,
            )

        verification, ok = pm.attempt(
            "verify", lambda: verify_module(module, strict=False)
        )
        if ok:
            pm.rows[-1]["detail"] = (
                f"{len(verification.errors)} error(s),"
                f" {len(verification.warnings)} warning(s)"
            )
        # verification is advisory (strict=False): a crash degrades, the
        # analysis itself continues.
        if self._out_of_time("verify"):
            return finish()

        # -- pointer / thread structure --------------------------------------
        pointsto, ok = pm.attempt("pointer", lambda: steensgaard(module))
        if ok:
            tcg, ok = pm.attempt(
                "tcg", lambda: build_thread_call_graph(module, pointsto)
            )
        if ok:
            mhp, ok = pm.attempt("mhp", lambda: MhpAnalysis(tcg))
        if not ok:
            # Everything downstream needs the thread structure; the
            # report stays empty but well-formed, with the failure
            # recorded in pass_statistics and degradation_warnings.
            pm.warn("thread-structure phase unavailable; no findings produced")
            return finish()
        if self._out_of_time("threads"):
            return finish()

        # -- Alg. 1 data dependence ----------------------------------------
        dataflow = DataDependenceAnalysis(
            module,
            tcg,
            max_content_entries=cfg.max_content_entries,
            prune_guards=cfg.prune_guards,
            tracer=self.tracer,
        )
        _vfg, ok = pm.attempt("dataflow", dataflow.run)
        if not ok:
            pm.warn("data-dependence analysis unavailable; no findings produced")
            return finish()
        pm.rows[-1]["detail"] = f"{len(dataflow.summaries)} function(s)"
        if self._out_of_time("dataflow"):
            return finish()

        # -- per-function value-flow summaries -----------------------------
        summary_index, ok = pm.attempt(
            "summaries", lambda: compute_summaries(dataflow, metrics=registry)
        )
        if not ok:
            # Interference builds the site indexes itself: losing the
            # layer costs the per-function extents, never the findings.
            pm.warn("summary layer unavailable; interference indexes its own sites")
        else:
            pm.rows[-1]["detail"] = f"{len(summary_index.summaries)} summaries"
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
                metrics=registry,
            )
            analysis.run()
            return analysis

        interference, ok = pm.attempt("interference", run_interference)
        if not ok:
            pm.warn("interference analysis unavailable; no findings produced")
            return finish()
        pm.rows[-1]["detail"] = (
            f"{interference.interference_edge_count} interference edge(s)"
        )
        if interference.truncated:
            truncation_warnings.append(
                f"interference: round {interference.rounds} (the"
                f" max_interference_rounds cap) still added edges — the"
                " fixpoint was cut, inter-thread flows may be missing"
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
            solver_max_conflicts=cfg.solver_max_conflicts,
            order_constraints=cfg.order_constraints,
            lock_analysis=lock_analysis,
            memory_model=cfg.memory_model,
            budget=budget,
            metrics=registry,
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
            found, ok = pm.attempt(f"detect:{name}", checker.run)
            if not ok:
                # One crashing checker never takes down the others.
                pm.warn(f"checker {name}: its findings are omitted")
                continue
            pm.rows[-1]["detail"] = f"{len(found)} report(s)"
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

    def _degraded_empty_report(self) -> AnalysisReport:
        """A well-formed empty report for runs that could not get past
        the frontend (crash or budget expiry before lowering finished)."""
        self.registry.set("time.parse", self.pm.seconds_of("parse"))
        self.registry.set("time.lowering", self.pm.seconds_of("lower"))
        return AnalysisReport(
            degradation_warnings=list(self.pm.warnings),
            timed_out=bool(self.budget.expirations),
            metrics=self.registry,
        )
