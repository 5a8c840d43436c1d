"""Source→sink value-flow path search over the guarded VFG (paper §5.1).

Depth-first enumeration of value-flow paths from a source node, following
data-dependence and interference-dependence edges.  Intra-thread
context-sensitivity is kept by matching call/return edges against a
context stack bounded by the configured nesting depth (the paper uses
clone-based summaries with depth 6; CFL-style matching over one shared
graph is the equivalent search-time formulation).

The searcher is property-agnostic: checkers supply a ``visit`` callback
that inspects each reached node (with the path so far) and decides
whether a sink has been hit.  The callback may return the number of
candidates it emitted at that node; the searcher uses the count to
enforce ``max_paths_per_source``.

Three demand-driven prunes keep the DFS out of useless subtrees — all
three are *exact* with respect to the reported bug keys (they only skip
work whose candidates the solver would refute, or subtrees that contain
no sink node at all):

* **sink reachability** — a
  :class:`~repro.detection.reachability.SinkReachabilityIndex` refuses
  edges into nodes that cannot reach any sink under the current context
  polarity;
* **incremental guard pruning** — a
  :class:`~repro.smt.simplify.GuardPrefix` folds each edge guard into a
  running difference-bound store; a definitely-unsat prefix cuts the
  subtree, since every extension's Φ_all conjoins a superset of it;
* **dead-state memo** — a ``(node, context, guard-fingerprint)`` state
  whose subtree was fully explored (no truncation, no on-path cycle
  block) without touching a sink node is dead for the rest of this
  source's search and is never re-explored.

Hitting a search bound is no longer silent: per-limit truncation
counters are kept and surfaced as soundness warnings by the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..ir.instructions import Instruction
from ..smt.simplify import GuardPrefix
from ..smt.terms import TRUE, BoolTerm
from ..vfg.builder import VFGBundle
from ..vfg.graph import DefNode, NullNode, ObjNode, StoreNode, VFGEdge, VFGNode
from .reachability import INFINITE_AVAIL, SinkReachabilityIndex

__all__ = [
    "ValueFlowPath",
    "PathSearcher",
    "SearchLimits",
    "SearchStatistics",
    "TruncationEvent",
]


@dataclass(frozen=True)
class SearchLimits:
    """Bounds keeping the enumeration tractable (soundy, like the paper's
    bounded unrolling and context depth)."""

    max_depth: int = 40
    max_paths_per_source: int = 512
    max_visits: int = 200_000
    context_depth: int = 6


@dataclass
class SearchStatistics:
    """Enumeration counters, merged across the sources of one checker."""

    visits: int = 0
    candidates: int = 0
    pruned_unreachable: int = 0
    pruned_guard: int = 0
    memo_hits: int = 0
    memo_dead_states: int = 0
    truncated_depth: int = 0
    truncated_visits: int = 0
    truncated_paths: int = 0

    def merge(self, other: "SearchStatistics") -> None:
        self.visits += other.visits
        self.candidates += other.candidates
        self.pruned_unreachable += other.pruned_unreachable
        self.pruned_guard += other.pruned_guard
        self.memo_hits += other.memo_hits
        self.memo_dead_states += other.memo_dead_states
        self.truncated_depth += other.truncated_depth
        self.truncated_visits += other.truncated_visits
        self.truncated_paths += other.truncated_paths

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    @property
    def truncated(self) -> bool:
        return bool(
            self.truncated_depth or self.truncated_visits or self.truncated_paths
        )


@dataclass(frozen=True)
class TruncationEvent:
    """One search bound fired while enumerating from ``origin`` — the
    enumeration (and thus the report set) may be incomplete there."""

    origin: str
    limit: str  # 'max_depth' | 'max_visits' | 'max_paths_per_source'
    count: int

    def describe(self) -> str:
        return (
            f"search from {self.origin} hit {self.limit}"
            f" ({self.count}x) — enumeration truncated, results may be incomplete"
        )


@dataclass
class ValueFlowPath:
    """A path ⟨v1@ℓ1, ..., vk@ℓk⟩: the edges traversed, in order."""

    origin: VFGNode
    edges: List[VFGEdge] = field(default_factory=list)

    def nodes(self) -> List[VFGNode]:
        out = [self.origin]
        out.extend(e.dst for e in self.edges)
        return out

    def statements(self, bundle: VFGBundle) -> List[Instruction]:
        """The program statements along the path (for Φ_po)."""
        out: List[Instruction] = []
        for node in self.nodes():
            inst = node_statement(bundle, node)
            if inst is not None:
                out.append(inst)
        return out

    def has_interference(self) -> bool:
        return any(e.interthread for e in self.edges)

    def describe(self, bundle: VFGBundle) -> str:
        parts = [f"{self.origin!r}"]
        for edge in self.edges:
            arrow = "⇢" if edge.interthread else "→"
            parts.append(f"{arrow} {edge.dst!r}")
        return " ".join(parts)


def node_statement(bundle: VFGBundle, node: VFGNode) -> Optional[Instruction]:
    if isinstance(node, StoreNode):
        return node.inst
    if isinstance(node, NullNode):
        return node.inst
    if isinstance(node, DefNode):
        return bundle.def_index.get(node.var)
    return None


class PathSearcher:
    """DFS path enumeration with context-stack matching and pruning."""

    def __init__(
        self,
        bundle: VFGBundle,
        limits: SearchLimits = SearchLimits(),
        *,
        reach_index: Optional[SinkReachabilityIndex] = None,
        guard_pruning: bool = False,
        dead_memo: bool = False,
        sink_nodes: Optional[Set[VFGNode]] = None,
    ) -> None:
        self.bundle = bundle
        self.graph = bundle.vfg
        self.limits = limits
        self.reach_index = reach_index
        self.guard_pruning = guard_pruning
        # The dead-state memo needs the sink set to decide deadness; a
        # property-agnostic search (no sink set) runs unmemoized.
        self.dead_memo = dead_memo and sink_nodes is not None
        self.sink_nodes = sink_nodes
        self.visits = 0
        self.paths_emitted = 0
        self.stats = SearchStatistics()
        self.truncations: Dict[str, int] = {}

    def search(
        self,
        origin: VFGNode,
        on_node: Callable[[VFGNode, ValueFlowPath], Optional[int]],
        alias_guard: Optional[BoolTerm] = None,
    ) -> SearchStatistics:
        """DFS from ``origin``; ``on_node`` fires for every node reached
        (including the origin with an empty path) and may return how many
        candidates it emitted there.  ``alias_guard`` seeds the guard
        prefix (e.g. the freed object's pointed-to-by condition)."""
        self.visits = 0
        self.paths_emitted = 0
        self.stats = SearchStatistics()
        self.truncations = {}
        path = ValueFlowPath(origin=origin)
        emitted = on_node(origin, path) or 0
        self.paths_emitted += emitted
        self.stats.candidates += emitted
        prefix: Optional[GuardPrefix] = None
        if self.guard_pruning:
            prefix = GuardPrefix()
            if alias_guard is not None and prefix.push(alias_guard):
                # The source's own side condition is already refutable:
                # no extension can be realizable, so nothing to search.
                self.stats.pruned_guard += 1
                return self.stats
        memo: Optional[Set[Tuple]] = set() if self.dead_memo else None
        self._dfs(
            origin,
            path,
            on_path_nodes={origin},
            context=(),
            avail=INFINITE_AVAIL,
            prefix=prefix,
            memo=memo,
            on_node=on_node,
        )
        self.stats.visits = self.visits
        if memo is not None:
            self.stats.memo_dead_states = len(memo)
        return self.stats

    def _truncate(self, limit: str) -> None:
        if limit != "max_depth" and limit in self.truncations:
            # Global budgets (visits, paths) stay exhausted while the
            # DFS unwinds: record them once per search, not per frame.
            return
        self.truncations[limit] = self.truncations.get(limit, 0) + 1
        if limit == "max_depth":
            self.stats.truncated_depth += 1
        elif limit == "max_visits":
            self.stats.truncated_visits += 1
        else:
            self.stats.truncated_paths += 1

    def _dfs(
        self,
        node: VFGNode,
        path: ValueFlowPath,
        on_path_nodes: Set[VFGNode],
        context: Tuple[int, ...],
        avail: int,
        prefix: Optional[GuardPrefix],
        memo: Optional[Set[Tuple]],
        on_node: Callable[[VFGNode, ValueFlowPath], Optional[int]],
    ) -> Tuple[bool, bool]:
        """Explore below ``node``; returns ``(clean, saw_sink)``.

        ``clean`` means the subtree was fully explored without hitting a
        limit or an on-path cycle block, so its (path-independent)
        outcome may be memoized; ``saw_sink`` means some node of the
        subtree belongs to the sink set.
        """
        out_edges = self.graph.out_edges(node)
        if not out_edges:
            return True, False
        if len(path.edges) >= self.limits.max_depth:
            self._truncate("max_depth")
            return False, False
        clean = True
        saw_sink = False
        sink_nodes = self.sink_nodes
        # hoisted out of the per-edge loop: this is the enumeration hot
        # path (one iteration per VFG edge visited)
        stats = self.stats
        limits = self.limits
        max_visits = limits.max_visits
        max_paths = limits.max_paths_per_source
        reach_index = self.reach_index
        for edge in out_edges:
            if self.visits >= max_visits:
                self._truncate("max_visits")
                return False, saw_sink
            if self.paths_emitted >= max_paths:
                self._truncate("max_paths_per_source")
                return False, saw_sink
            dst = edge.dst
            if dst in on_path_nodes:
                # Cycle block: the outcome depends on the current path,
                # so the subtree must not be memoized as dead.
                clean = False
                continue
            new_context = self._step_context(edge, context)
            if new_context is None:
                continue
            new_avail = self._step_avail(edge, avail)
            if reach_index is not None and not reach_index.can_enter(
                dst, new_avail
            ):
                stats.pruned_unreachable += 1
                continue
            pushed = False
            if prefix is not None and edge.guard is not TRUE:
                # The prefix grows/shrinks in strict DFS (stack) order,
                # so sibling paths diverging late share their
                # quick-check state.
                pushed = True
                if prefix.push(edge.guard):
                    # Prefix definitely unsat ⇒ every completed path
                    # through this edge has an unsat Φ_guards ⇒ the
                    # solver would refute all of them anyway.
                    stats.pruned_guard += 1
                    prefix.pop()
                    continue
            if memo is not None:
                state = (dst, new_context, prefix.fingerprint() if prefix else None)
                if state in memo:
                    stats.memo_hits += 1
                    if pushed:
                        prefix.pop()
                    continue
            self.visits += 1
            path.edges.append(edge)
            on_path_nodes.add(dst)
            emitted = on_node(dst, path) or 0
            self.paths_emitted += emitted
            stats.candidates += emitted
            child_clean, child_sink = self._dfs(
                dst, path, on_path_nodes, new_context, new_avail, prefix, memo, on_node
            )
            sub_sink = child_sink or (sink_nodes is not None and dst in sink_nodes)
            if memo is not None and child_clean and not sub_sink:
                memo.add(state)
            clean = clean and child_clean
            saw_sink = saw_sink or sub_sink
            on_path_nodes.discard(dst)
            path.edges.pop()
            if pushed:
                prefix.pop()
        return clean, saw_sink

    _FORK_MARKER = -1

    def _step_context(
        self, edge: VFGEdge, context: Tuple[int, ...]
    ) -> Optional[Tuple[int, ...]]:
        """CFL-style context update; None = edge not admissible here."""
        if edge.kind == "call":
            if len(context) >= self.limits.context_depth:
                return None
            return context + (edge.callsite,)
        if edge.kind == "forkarg":
            if len(context) >= self.limits.context_depth:
                return None
            return context + (self._FORK_MARKER,)
        if edge.kind == "ret":
            if not context:
                return ()  # unbalanced-up: returning out of the start scope
            top = context[-1]
            if top == self._FORK_MARKER:
                return None  # a thread never returns into its forker
            if top != edge.callsite:
                return None  # mismatched call/return parenthesis
            return context[:-1]
        return context

    def _step_avail(self, edge: VFGEdge, avail: int) -> int:
        """Base-level returns still admissible after taking ``edge`` —
        the number of context entries above the topmost fork marker
        (``INFINITE_AVAIL`` when no marker is on the stack)."""
        if edge.kind == "call":
            return avail if avail >= INFINITE_AVAIL else avail + 1
        if edge.kind == "forkarg":
            return 0
        if edge.kind == "ret":
            # avail == 0 with a marker on top was rejected by
            # _step_context; popping the empty stack keeps avail infinite.
            return avail if avail >= INFINITE_AVAIL else avail - 1
        return avail
