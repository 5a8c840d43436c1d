"""Source-sink checker framework (paper §5).

A checker instantiates the guarded-reachability template: enumerate
source nodes, search the VFG forward, match sink uses of the reached
values, and keep only the paths the SMT solver proves realizable.  Bug
reports carry the witness path and the constraints — the paper's
"concise bug reports with a limited number of relevant statements".

The enumeration layer is demand-driven (sink-directed): each checker
declares its *sink node set* (the VFG definitions whose uses can be a
sink for the property), a backward :class:`SinkReachabilityIndex` over
that set prunes the forward DFS, and an incremental guard prefix cuts
quick-unsat subtrees mid-search.  Each candidate is solved as soon as the
DFS discovers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import (
    FreeInst,
    Instruction,
    LoadInst,
    SinkInst,
    StoreInst,
)
from ..ir.values import Variable
from ..smt.terms import TRUE, BoolTerm
from ..vfg.builder import VFGBundle
from ..vfg.graph import DefNode, ObjNode, VFGNode
from ..detection.reachability import SinkReachabilityIndex
from ..detection.realizability import PathQuery, RealizabilityChecker
from ..detection.search import (
    PathSearcher,
    SearchLimits,
    SearchStatistics,
    TruncationEvent,
    ValueFlowPath,
)
from .concurrency import sorted_objects

__all__ = ["BugReport", "SourceSinkChecker", "UseIndex"]


@dataclass
class SuppressedCandidate:
    """A source→sink pair the solver proved unrealizable, with the reason
    (``guard-contradiction`` vs ``order-violation``) — useful for triage
    and for quantifying where Canary's precision comes from."""

    kind: str
    source: Instruction
    sink: Instruction
    reason: str

    def describe(self) -> str:
        return (
            f"[suppressed {self.kind}] ℓ{self.source.label} -> ℓ{self.sink.label}"
            f" ({self.reason})"
        )


@dataclass
class BugReport:
    """One confirmed (realizable) source→sink finding."""

    kind: str
    source: Instruction
    sink: Instruction
    path: str
    inter_thread: bool
    witness_order: Dict[str, int] = field(default_factory=dict)
    #: the model's extern/atom assignments, for witness replay
    witness_env: Dict[str, Dict] = field(default_factory=dict)
    statements: List[Instruction] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"[{self.kind}] {self.source.location} -> {self.sink.location}"
            + ("  (inter-thread)" if self.inter_thread else ""),
            f"  source: ℓ{self.source.label}: {self.source.brief()}",
            f"  sink:   ℓ{self.sink.label}: {self.sink.brief()}",
            f"  value flow: {self.path}",
        ]
        if self.witness_order:
            order = sorted(self.witness_order.items(), key=lambda kv: kv[1])
            lines.append(
                "  witness interleaving: " + " < ".join(name for name, _v in order)
            )
        return "\n".join(lines)

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.kind, self.source.label, self.sink.label)


class UseIndex:
    """Where each SSA variable is used as a pointer / as plain data."""

    def __init__(self, bundle: VFGBundle) -> None:
        self.pointer_uses: Dict[Variable, List[Instruction]] = {}
        self.data_uses: Dict[Variable, List[Instruction]] = {}
        for inst in bundle.module.all_instructions():
            if isinstance(inst, LoadInst) and isinstance(inst.pointer, Variable):
                self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, StoreInst):
                if isinstance(inst.pointer, Variable):
                    self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, FreeInst) and isinstance(inst.pointer, Variable):
                self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, SinkInst):
                for arg in inst.args:
                    if isinstance(arg, Variable):
                        self.data_uses.setdefault(arg, []).append(inst)

    def pointer_def_nodes(self, *use_classes) -> Set[VFGNode]:
        """DefNodes of variables with a pointer use of the given classes."""
        return {
            DefNode(var)
            for var, uses in self.pointer_uses.items()
            if any(isinstance(u, use_classes) for u in uses)
        }


class SourceSinkChecker:
    """Template for guarded-reachability bug checking."""

    kind: str = "generic"

    def __init__(
        self,
        bundle: VFGBundle,
        limits: SearchLimits = SearchLimits(),
        realizability: Optional[RealizabilityChecker] = None,
        inter_thread_only: bool = True,
        max_reports_per_source: int = 8,
        collect_suppressed: bool = False,
        sink_reachability: bool = True,
        guard_pruning: bool = True,
        dead_memo: bool = True,
        index_cache=None,
        budget=None,
        tracer=None,
    ) -> None:
        from ..obs.tracer import NULL_TRACER

        #: optional repro.obs Tracer: per-source ``enumerate`` spans
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bundle = bundle
        self.limits = limits
        self.realizability = realizability or RealizabilityChecker(bundle)
        self.inter_thread_only = inter_thread_only
        self.max_reports_per_source = max_reports_per_source
        self.collect_suppressed = collect_suppressed
        #: the three exact enumeration prunes; off only for reference runs
        self.sink_reachability = sink_reachability
        # Guard pruning skips exactly the candidates the solver would
        # refute — the ones the suppressed-candidate diagnostics exist to
        # explain — so the diagnostic mode turns it off.
        self.guard_pruning = guard_pruning and not collect_suppressed
        self.dead_memo = dead_memo
        #: optional ``(sink set, context depth) -> index`` dict shared by
        #: the checkers of one run over one unchanging VFG
        self.index_cache = index_cache
        #: optional repro.analysis.budget.Budget — checked between sources;
        #: on expiry the checker winds down with what it has found so far
        self.budget = budget
        self.suppressed: List[SuppressedCandidate] = []
        self.uses = UseIndex(bundle)
        self.search_stats = SearchStatistics()
        self.truncation_events: List[TruncationEvent] = []
        self.statistics = {
            "sources": 0,
            "candidates": 0,
            "reports": 0,
            # candidates whose realizability came back UNKNOWN: a budget
            # outcome, neither reported nor counted as solver-refuted
            "undecided": 0,
        }

    # ----- subclass API -----------------------------------------------------

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        """(origin node, source statement, alias guard) triples to search
        from.  For object-rooted searches (UAF, double-free) the origin is
        the freed object's node and the alias guard is the condition under
        which the source statement actually touches that object."""
        raise NotImplementedError

    def free_sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        """Object-rooted sources for the UAF and double-free checkers: each
        object a ``free`` may release, in :func:`sorted_objects` order, so
        the candidate order (and with it the witnesses) does not follow
        the objects' addresses."""
        interference = self.bundle.interference
        for inst in self.bundle.module.all_instructions():
            if isinstance(inst, FreeInst) and isinstance(inst.pointer, Variable):
                for obj in sorted_objects(interference.points_to_objects(inst.pointer)):
                    alias = interference.pted_guard(obj, DefNode(inst.pointer))
                    yield ObjNode(obj), inst, alias if alias is not None else TRUE

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        """Sink statements triggered by the value reaching ``var``."""
        raise NotImplementedError

    def sink_node_set(self) -> Optional[Set[VFGNode]]:
        """The VFG nodes at which :meth:`sinks_at` could ever yield a sink
        (an over-approximation, independent of the source statement).

        Drives the sink-reachability index and the dead-state memo;
        ``None`` (the property-agnostic default) disables both.
        """
        return None

    def extra_constraints(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[BoolTerm, ...]:
        return ()

    def extra_statements(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[Instruction, ...]:
        """Statements beyond path + endpoints whose order variables the
        checker's ``extra_constraints`` mention; they join the Φ_po and
        mutual-exclusion universe of the query (e.g. the local write of
        an RMW pair for the atomicity checker)."""
        return ()

    def admit(self, source: Instruction, sink: Instruction, path: ValueFlowPath) -> bool:
        """Property-specific pre-SMT filter.

        "Inter-thread" means the defect involves more than one thread —
        either the value flows across threads (an interference edge on
        the path) or the source and sink statements can run in different
        threads.  Whether the required *order* is feasible is decided by
        the solver (Φ_po and the checker's extra order constraints), not
        here: a free-then-join-then-use bug is ordered yet inter-thread.
        """
        if source is sink:
            return False
        if not self.inter_thread_only:
            return True
        if path.has_interference():
            return True
        threads_a = self.bundle.tcg.threads_of(source)
        threads_b = self.bundle.tcg.threads_of(sink)
        return any(a != b for a in threads_a for b in threads_b)

    # ----- enumeration plumbing ----------------------------------------------

    def _reach_index(
        self, sinks: Optional[Set[VFGNode]]
    ) -> Optional[SinkReachabilityIndex]:
        if not self.sink_reachability or not sinks:
            return None
        depth = self.limits.context_depth
        cache = self.index_cache
        if cache is None:
            return SinkReachabilityIndex(self.bundle.vfg, sinks, depth)
        key = (frozenset(sinks), depth)
        index = cache.get(key)
        if index is None:
            index = cache[key] = SinkReachabilityIndex(self.bundle.vfg, key[0], depth)
        return index

    def _make_searcher(
        self,
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
    ) -> PathSearcher:
        return PathSearcher(
            self.bundle,
            self.limits,
            reach_index=index,
            guard_pruning=self.guard_pruning,
            dead_memo=self.dead_memo,
            sink_nodes=sinks,
        )

    def _note_search(self, origin: VFGNode, searcher: PathSearcher) -> None:
        """Merge one source's enumeration counters and truncations."""
        self.search_stats.merge(searcher.stats)
        for limit, count in sorted(searcher.truncations.items()):
            self.truncation_events.append(
                TruncationEvent(origin=repr(origin), limit=limit, count=count)
            )

    # ----- driver -----------------------------------------------------------

    def run(self) -> List[BugReport]:
        """Enumerate every source's paths and solve each candidate as the
        DFS discovers it.  A (source, sink) pair is claimed only by a
        *realizable* path: when its first path is refuted, later paths of
        the same pair are still checked."""
        sinks = self.sink_node_set()
        index = self._reach_index(sinks)
        source_list = list(self.sources())
        self.statistics["sources"] = len(source_list)
        reports: List[BugReport] = []
        reported_keys: Set[Tuple] = set()
        for origin, source_inst, alias_guard in source_list:
            if self.budget is not None and self.budget.note_expired(
                f"checker:{self.kind}"
            ):
                break  # wall budget expired: report what we have so far
            found_here = 0

            def on_node(node: VFGNode, path: ValueFlowPath) -> int:
                nonlocal found_here
                if not isinstance(node, DefNode):
                    return 0
                emitted = 0
                for sink_inst in self.sinks_at(node.var, source_inst):
                    key = (self.kind, source_inst.label, sink_inst.label)
                    if key in reported_keys:
                        continue
                    if not self.admit(source_inst, sink_inst, path):
                        continue
                    emitted += 1
                    if found_here >= self.max_reports_per_source:
                        # Report budget exhausted: the candidate still
                        # counts against max_paths_per_source but is not
                        # solved — at most max_reports_per_source keys
                        # per source.
                        continue
                    query = PathQuery(
                        path=ValueFlowPath(origin=path.origin, edges=list(path.edges)),
                        source_inst=source_inst,
                        sink_inst=sink_inst,
                        extra_constraints=self.extra_constraints(
                            source_inst, sink_inst
                        ),
                        alias_guard=alias_guard,
                        extra_statements=self.extra_statements(
                            source_inst, sink_inst
                        ),
                    )
                    result = self.realizability.check(query)
                    if not result.realizable:
                        if result.verdict == "unknown":
                            # Budget outcome, not a refutation: recording
                            # it as suppressed would mislabel it as
                            # solver-proved infeasible.
                            self.statistics["undecided"] += 1
                        elif self.collect_suppressed:
                            key_s = (self.kind, source_inst.label, sink_inst.label, "s")
                            if key_s not in reported_keys:
                                reported_keys.add(key_s)
                                self.suppressed.append(
                                    SuppressedCandidate(
                                        kind=self.kind,
                                        source=source_inst,
                                        sink=sink_inst,
                                        reason=self.realizability.explain_refutation(
                                            query
                                        ),
                                    )
                                )
                        continue
                    reported_keys.add(key)
                    found_here += 1
                    reports.append(self._make_report(query, result))
                return emitted

            searcher = self._make_searcher(index, sinks)
            with self.tracer.span("enumerate", checker=self.kind, source=source_inst.label):
                searcher.search(origin, on_node, alias_guard=alias_guard)
            self._note_search(origin, searcher)
        # Enumeration counters live in self.search_stats (the driver
        # surfaces them separately); candidates is shared vocabulary.
        self.statistics["candidates"] = self.search_stats.candidates
        self.statistics["reports"] += len(reports)
        return reports

    def _make_report(self, query: PathQuery, result) -> BugReport:
        source_inst, sink_inst = query.source_inst, query.sink_inst
        src_threads = self.bundle.tcg.threads_of(source_inst)
        sink_threads = self.bundle.tcg.threads_of(sink_inst)
        return BugReport(
            kind=self.kind,
            source=source_inst,
            sink=sink_inst,
            path=query.path.describe(self.bundle),
            inter_thread=query.path.has_interference()
            or any(a != b for a in src_threads for b in sink_threads),
            witness_order=result.witness_order,
            witness_env=result.witness_env,
            statements=query.path.statements(self.bundle),
        )
