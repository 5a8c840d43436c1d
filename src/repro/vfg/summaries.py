"""Per-function value-flow summaries — the modular layer between
Alg. 1 (guarded data dependence) and Alg. 2 (interference).

Alg. 1 builds the VFG one function at a time (reverse-topological pass
order), so every function owns one *contiguous span* of edge ordinals and
store/load site positions (recorded in
``DataDependenceAnalysis.function_extents``).  A
:class:`FunctionVFSummary` names that span; :class:`SummaryIndex` holds
the run's summaries in pass order, plus the run's store/load sites
indexed by pointer variable, which Alg. 2 reads.  Interference and
detection walk the VFG itself: its per-node adjacency lists are what any
view over these spans would rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ir.values import Variable

__all__ = [
    "FunctionVFSummary",
    "SummaryIndex",
    "compute_summaries",
    "site_index",
]


def site_index(sites) -> Dict[Variable, List[int]]:
    """Pointer variable -> ascending positions into ``sites``."""
    index: Dict[Variable, List[int]] = {}
    for pos, site in enumerate(sites):
        ptr = site.pointer
        if isinstance(ptr, Variable):
            index.setdefault(ptr, []).append(pos)
    return index


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


@dataclass
class SummaryIndex:
    """All function summaries of one run, keyed by function name, and
    the run's site indexes."""

    summaries: Dict[str, FunctionVFSummary]
    #: pointer variable -> ascending positions into ``dataflow.all_stores``
    ptr_stores: Dict[Variable, List[int]]
    #: pointer variable -> ascending positions into ``dataflow.all_loads``
    ptr_loads: Dict[Variable, List[int]]


def compute_summaries(dataflow, *, metrics=None) -> SummaryIndex:
    """Build the per-function summaries of one Alg. 1 run, in pass order,
    and its site indexes."""
    summaries = {
        name: FunctionVFSummary(name, extent)
        for name, extent in dataflow.function_extents.items()
    }
    if metrics is not None:
        metrics.counter("summary.functions").add(len(summaries))
    return SummaryIndex(
        summaries, site_index(dataflow.all_stores), site_index(dataflow.all_loads)
    )
