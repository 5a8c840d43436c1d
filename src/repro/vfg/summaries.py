"""Per-function value-flow summaries — the modular layer between
Alg. 1 (guarded data dependence) and Alg. 2 (interference).

Alg. 1 builds the VFG one function at a time (reverse-topological pass
order), so every function owns one *contiguous span* of edge ordinals and
store/load site positions (recorded in
``DataDependenceAnalysis.function_extents``).  A
:class:`FunctionVFSummary` names that span.

:class:`SummaryIndex` indexes the run's store/load sites by pointer
variable (the inputs to ``Pted`` membership tests and to the
``S(l)``/``object_stores`` construction) and serves a
:class:`SummaryGraphView` — a demand-loading adjacency view that
materializes a function's edge span only when the interference fixpoint
or the detection DFS actually walks into it.  Exactness is structural:
per-node adjacency lists in the real VFG are ordinal-sorted by
construction, so merging per-shard ``(ordinal, edge)`` entries and
appending interference-created overlay edges (whose ordinals are larger
than every dataflow ordinal) reproduces ``vfg.out_edges`` byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..ir.values import Variable
from .graph import VFGEdge, ValueFlowGraph

__all__ = [
    "FunctionVFSummary",
    "SummaryGraphView",
    "SummaryIndex",
    "compute_summaries",
]


# ----- summary artifact -----------------------------------------------------


@dataclass
class FunctionVFSummary:
    """One function's span of the Alg. 1 output."""

    name: str
    #: (edge_start, edge_end, store_start, store_end, load_start,
    #: load_end, fork_escape_start, fork_escape_end)
    extent: Tuple[int, ...]

    @property
    def edge_span(self) -> Tuple[int, int]:
        return (self.extent[0], self.extent[1])

    @property
    def num_edges(self) -> int:
        return self.extent[1] - self.extent[0]


# ----- demand-loading graph view -------------------------------------------


class SummaryGraphView:
    """Adjacency view over summary edge spans, loaded shard by shard.

    ``out_edges(node)`` materializes only the shards (function spans)
    that *own* out-edges of ``node``; the result list is identical to
    ``vfg.out_edges(node)`` — same edges, same order — because per-node
    lists are rebuilt by ordinal.  Interference edges created during the
    fixpoint are appended through :meth:`add_overlay` with monotonically
    increasing ordinals, which keeps every materialized list sorted
    without re-sorting.
    """

    def __init__(
        self,
        vfg: ValueFlowGraph,
        summaries: Dict[str, FunctionVFSummary],
        out_owners: Dict[Any, Tuple[str, ...]],
    ) -> None:
        # The view holds what it reads, not the index that owns it: a
        # back-pointer would make every run's VFG and IR cyclic garbage.
        self.vfg = vfg
        self.summaries = summaries
        self.out_owners = out_owners
        self._loaded: Set[str] = set()
        #: pending per-node (ordinal, edge) entries for loaded shards
        self._entries: Dict[Any, List[Tuple[int, VFGEdge]]] = {}
        #: finalized ordinal-sorted adjacency lists
        self._ready: Dict[Any, List[VFGEdge]] = {}
        self.shards_loaded = 0
        self.edges_materialized = 0
        self.demand_queries = 0

    def out_edges(self, node: Any) -> List[VFGEdge]:
        ready = self._ready.get(node)
        if ready is not None:
            return ready
        self.demand_queries += 1
        for name in self.out_owners.get(node, ()):
            self._load(name)
        entries = self._entries.pop(node, None)
        if entries is None:
            ready = []
        else:
            entries.sort(key=lambda pair: pair[0])
            ready = [edge for _ordinal, edge in entries]
        self._ready[node] = ready
        return ready

    def in_edges(self, node: Any) -> List[VFGEdge]:
        # Backward queries (escape seeding, explanation) go straight to
        # the real VFG; demand loading only pays off on the forward side.
        return self.vfg.in_edges(node)

    def add_overlay(self, edge: VFGEdge, ordinal: int) -> None:
        """Register an interference edge added to the VFG at ``ordinal``
        (strictly larger than all previously registered ordinals for its
        source node, since the VFG append is the ordinal)."""
        ready = self._ready.get(edge.src)
        if ready is not None:
            ready.append(edge)
        else:
            self._entries.setdefault(edge.src, []).append((ordinal, edge))

    def _load(self, name: str) -> None:
        if name in self._loaded:
            return
        self._loaded.add(name)
        summary = self.summaries[name]
        start, end = summary.edge_span
        for ordinal, edge in enumerate(self.vfg.edge_slice(start, end), start):
            # A node's finalized list never misses shard edges: owners
            # are computed up front, and a node is finalized only after
            # all its owner shards have loaded.
            target = self._ready.get(edge.src)
            if target is not None:
                # Owner loaded after finalization cannot happen for
                # dataflow edges (all owners load before finalization);
                # guard anyway for robustness.
                target.append(edge)
            else:
                self._entries.setdefault(edge.src, []).append((ordinal, edge))
        self.shards_loaded += 1
        self.edges_materialized += end - start

    # ----- diagnostics ------------------------------------------------------

    def assert_consistent(self) -> None:
        """Every materialized adjacency list must equal the real VFG's
        (same edge objects, same order) — the exactness invariant."""
        for node, ready in self._ready.items():
            real = self.vfg.out_edges(node)
            if ready != real:
                raise AssertionError(
                    f"summary view diverged at {node!r}: "
                    f"{len(ready)} vs {len(real)} edges"
                )

    def statistics(self) -> Dict[str, int]:
        return {
            "shards_loaded": self.shards_loaded,
            "shards_total": len(self.summaries),
            "edges_materialized": self.edges_materialized,
            "demand_queries": self.demand_queries,
        }


# ----- index ----------------------------------------------------------------


def _site_index(sites) -> Dict[Variable, List[int]]:
    """Pointer variable -> ascending positions into ``sites``."""
    index: Dict[Variable, List[int]] = {}
    for pos, site in enumerate(sites):
        ptr = site.pointer
        if isinstance(ptr, Variable):
            index.setdefault(ptr, []).append(pos)
    return index


class SummaryIndex:
    """All function summaries of one run, plus the run's site indexes
    and the demand-loading graph view consumed by interference/detection."""

    def __init__(self, dataflow, summaries: Dict[str, FunctionVFSummary]) -> None:
        self.vfg: ValueFlowGraph = dataflow.vfg
        self.summaries = summaries
        #: pointer-var -> ascending positions into ``dataflow.all_stores``
        self.ptr_stores = _site_index(dataflow.all_stores)
        #: pointer-var -> ascending positions into ``dataflow.all_loads``
        self.ptr_loads = _site_index(dataflow.all_loads)
        #: node -> names of the functions owning its out-edges
        self.out_owners: Dict[Any, Tuple[str, ...]] = {}
        owners: Dict[Any, List[str]] = {}
        for name, summary in summaries.items():
            start, end = summary.edge_span
            for edge in self.vfg.edge_slice(start, end):
                names = owners.setdefault(edge.src, [])
                if not names or names[-1] != name:
                    names.append(name)
        for node, names in owners.items():
            self.out_owners[node] = tuple(dict.fromkeys(names))
        self.view = SummaryGraphView(self.vfg, summaries, self.out_owners)

    def store_positions(self, var: Variable) -> Sequence[int]:
        return self.ptr_stores.get(var, ())

    def load_positions(self, var: Variable) -> Sequence[int]:
        return self.ptr_loads.get(var, ())

    def statistics(self) -> Dict[str, int]:
        stats = self.view.statistics()
        stats["functions"] = len(self.summaries)
        return stats


# ----- computation ----------------------------------------------------------


def compute_summaries(dataflow, *, metrics=None) -> SummaryIndex:
    """Build the per-function summaries of one Alg. 1 run, in pass order."""
    summaries = {
        name: FunctionVFSummary(name, extent)
        for name, extent in dataflow.function_extents.items()
    }
    if metrics is not None:
        metrics.counter("summary.functions").add(len(summaries))
    return SummaryIndex(dataflow, summaries)
