"""Realizability checking of value-flow paths (paper §5.2).

For a candidate source→sink path, assemble

    Φ_all(π) = Φ_guards(π) ∧ Φ_ls(π) ∧ Φ_po(π) ∧ Φ_extra

(Eq. 5 plus the checker-specific constraints such as ``O_free < O_use``)
and decide it with the SMT solver.  SAT means the path corresponds to a
feasible sequentially-consistent interleaving and the bug is reported,
together with a *witness order* extracted from the model.

Every Φ_all is solved; a run rarely builds the same Φ_all twice, so
verdicts are not memoized.  The run's
:class:`~repro.analysis.budget.Budget` bounds every solve
(:meth:`~repro.analysis.budget.Budget.query_timeout`; no budget, no
limit): an exhausted budget is an UNKNOWN verdict, never a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Instruction
from ..obs.metrics import Counter, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..smt.solver import SAT, UNKNOWN, UNSAT, Solver, solve_formula
from ..smt.terms import TRUE, BoolTerm, and_
from ..vfg.builder import VFGBundle
from .partial_order import OrderConstraintBuilder, order_var
from .search import ValueFlowPath

__all__ = [
    "PathQuery",
    "RealizabilityChecker",
    "RealizabilityResult",
]


@dataclass
class PathQuery:
    """One candidate bug: a path plus its endpoint statements.

    ``alias_guard`` carries non-order side conditions (e.g. the freed
    object's pointed-to-by guard); ``extra_constraints`` carry the
    checker's order requirements (e.g. ``O_free < O_use``).  The split
    lets :meth:`RealizabilityChecker.explain_refutation` attribute an
    UNSAT verdict to guards vs. ordering.
    """

    path: ValueFlowPath
    source_inst: Optional[Instruction]
    sink_inst: Optional[Instruction]
    extra_constraints: Tuple[BoolTerm, ...] = ()
    alias_guard: BoolTerm = TRUE
    #: additional statements (beyond path + endpoints) whose order
    #: variables the checker's extra_constraints mention — they join the
    #: Φ_po / mutual-exclusion statement universe and contribute their
    #: own path conditions (e.g. the local write of an RMW pair for the
    #: atomicity checker).
    extra_statements: Tuple[Instruction, ...] = ()


@dataclass
class RealizabilityResult:
    realizable: bool
    verdict: str  # 'sat' | 'unsat' | 'unknown'
    formula: BoolTerm = TRUE
    witness_order: Dict[str, int] = field(default_factory=dict)
    #: the model's non-order assignments, for witness replay:
    #: {'ints': extern-name -> int, 'bools': atom-name -> bool}
    witness_env: Dict[str, Dict] = field(default_factory=dict)
    #: why an 'unknown' verdict was undecided ('conflicts', 'deadline',
    #: 'theory-rounds'); empty for decided verdicts.  An UNKNOWN is a
    #: budget outcome, never evidence of (un)realizability.
    unknown_reason: str = ""


class RealizabilityChecker:
    """Assembles Φ_all and decides it."""

    def __init__(
        self,
        bundle: VFGBundle,
        solver_max_conflicts: Optional[int] = 100_000,
        order_constraints: bool = True,
        lock_analysis=None,
        memory_model: str = "sc",
        budget=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.bundle = bundle
        self.orders = OrderConstraintBuilder(
            bundle, lock_analysis=lock_analysis, memory_model=memory_model
        )
        self.solver_max_conflicts = solver_max_conflicts
        #: optional repro.analysis.budget.Budget — the per-query timeout,
        #: clipped to the run's remaining wall budget
        self.budget = budget
        self.order_constraints = order_constraints
        #: the single home of the solver counters; shared with the run's
        #: AnalysisReport when the pipeline constructs the checker
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Pre-register the full legacy counter set in its historical
        # order so the ``statistics`` view is shape-stable from birth.
        self._counters: Dict[str, Counter] = {}
        for key in (
            "queries",
            "sat",
            "unsat",
            "unknown",
            "unknown_conflicts",
            "unknown_deadline",
        ):
            self._counter(key)
        self._counter("solve_seconds").add(0.0)  # promote to float

    def _counter(self, key: str) -> Counter:
        """The ``solver.<key>`` counter (get-or-create, memoized)."""
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.metrics.counter(f"solver.{key}")
        return counter

    @property
    def statistics(self) -> Dict[str, int]:
        """Legacy view: the ``solver.*`` registry counters, plain dict."""
        return self.metrics.namespace("solver")

    # ----- formula assembly -------------------------------------------------

    def formula_for(self, query: PathQuery) -> BoolTerm:
        parts: List[BoolTerm] = []
        # Φ_guards: the aggregated guards along the path (Eq. 5) plus the
        # endpoint statements' own path conditions.
        mentioned: List[Instruction] = []
        for edge in query.path.edges:
            parts.append(edge.guard)
            if edge.kind == "load" and self.order_constraints:
                phi_ls, stores = self.orders.load_store(edge)
                parts.append(phi_ls)
                mentioned.extend(stores)
        if query.source_inst is not None:
            parts.append(query.source_inst.guard)
        if query.sink_inst is not None:
            parts.append(query.sink_inst.guard)
        for extra in query.extra_statements:
            parts.append(extra.guard)
        if self.order_constraints:
            # Φ_po over every statement involved (Eq. 4).
            statements = query.path.statements(self.bundle)
            for endpoint in (query.source_inst, query.sink_inst):
                if endpoint is not None:
                    statements.append(endpoint)
            statements.extend(query.extra_statements)
            parts.append(self.orders.program_order(statements))
            # Lock/unlock extension: mutual exclusion over everything the
            # formula mentions (path, endpoints, interfering stores).
            parts.append(self.orders.mutex_exclusion(statements + mentioned))
            # Condition-variable extension: signal→wait edges for every
            # wait statement the formula mentions.
            parts.append(self.orders.signal_wait_order(statements + mentioned))
        parts.append(query.alias_guard)
        parts.extend(query.extra_constraints)
        return and_(*parts)

    def guards_only_formula(self, query: PathQuery) -> BoolTerm:
        """Only Φ_guards (edge guards + endpoint path conditions + alias
        guard) — no Φ_ls, no Φ_po, no checker order constraints."""
        parts: List[BoolTerm] = [query.alias_guard]
        for edge in query.path.edges:
            parts.append(edge.guard)
        if query.source_inst is not None:
            parts.append(query.source_inst.guard)
        if query.sink_inst is not None:
            parts.append(query.sink_inst.guard)
        return and_(*parts)

    def explain_refutation(self, query: PathQuery) -> str:
        """Why was an unrealizable candidate refuted?

        * ``'guard-contradiction'`` — the aggregated branch/alias guards
          alone are UNSAT (the Fig. 2 class);
        * ``'order-violation'`` — the guards are consistent but no total
          order satisfies Φ_ls ∧ Φ_po plus the checker's requirements
          (the Fig. 5(b) / fork-join class).
        """
        solver = Solver(
            max_conflicts=self.solver_max_conflicts,
            timeout=self.budget.query_timeout() if self.budget is not None else None,
        )
        solver.add(self.guards_only_formula(query))
        if solver.check() is UNSAT:
            return "guard-contradiction"
        return "order-violation"

    # ----- deciding ---------------------------------------------------------

    def _bump(self, verdict: str, seconds: float, reason: str = "") -> None:
        """Merge one query's counters."""
        self._counter("queries").add(1)
        self._counter(verdict).add(1)
        if verdict == UNKNOWN and reason:
            self._counter(f"unknown_{reason.replace('-', '_')}").add(1)
        self._counter("solve_seconds").add(seconds)

    def degradation_summary(self) -> List[str]:
        """Human-readable degradation warnings for the analysis report:
        budget-starved queries.  Empty when nothing degraded."""
        out: List[str] = []
        s = self.statistics
        if s.get("unknown_deadline"):
            out.append(
                f"solver: {s['unknown_deadline']} query(ies) hit the per-query"
                " deadline (verdict unknown, candidate not reported)"
            )
        return out

    def _materialize(
        self,
        formula: BoolTerm,
        verdict: str,
        ints: Dict[str, int],
        bools: Dict[str, bool],
        reason: str = "",
    ) -> RealizabilityResult:
        """Build a result from the plain data ``solve_formula`` returns."""
        if verdict != SAT:
            # UNSAT: refuted.  UNKNOWN: budget exhausted — soundy choice,
            # do not report (low FP bias), but carry the reason so callers
            # can distinguish "proved infeasible" from "gave up".
            return RealizabilityResult(False, verdict, formula, unknown_reason=reason)
        witness: Dict[str, int] = {}
        witness_env: Dict[str, Dict] = {"ints": {}, "bools": dict(bools)}
        for name, value in ints.items():
            if name.startswith("O") and name[1:].isdigit():
                # Statement order variables O<label>.
                witness[name] = value
            else:
                witness_env["ints"][name] = value
        return RealizabilityResult(True, SAT, formula, witness, witness_env)

    def check(self, query: PathQuery) -> RealizabilityResult:
        return self.check_formula(self.formula_for(query))

    def check_formula(self, formula: BoolTerm) -> RealizabilityResult:
        """Decide one assembled Φ_all."""
        with self.tracer.span("solver.query") as span:
            verdict, ints, bools, seconds, reason = solve_formula(
                formula,
                max_conflicts=self.solver_max_conflicts,
                timeout=self.budget.query_timeout() if self.budget is not None else None,
                tracer=self.tracer,
            )
            span.set("verdict", verdict)
            if reason:
                span.set("unknown_reason", reason)
        self._bump(verdict, seconds, reason)
        return self._materialize(formula, verdict, ints, bools, reason)
