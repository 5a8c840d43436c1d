"""Saber-style baseline detector (paper §7.1, citing Sui et al. [61]).

Pipeline: exhaustive Andersen points-to → unguarded value-flow graph
(store→load edges wherever the points-to sets of the two pointers
intersect, with *no* thread, order, or path reasoning — flow-insensitive
points-to "trivially models the thread interference") → plain
source→sink graph reachability for the use-after-free property.

No guards, no MHP, no SMT: every guard-infeasible and order-infeasible
pattern in a program is reported, which is why Table 1 shows ~100% false
positive rates for this family of tools on concurrency properties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..ir.module import IRModule
from ..pointer.andersen import andersen
from .common import BaselineReport, UnguardedVFG, store_load_sites, uaf_reports

__all__ = ["SaberBaseline", "SaberResult"]


@dataclass
class SaberResult:
    reports: List[BaselineReport]
    vfg_nodes: int
    vfg_edges: int
    pointsto_facts: int
    build_seconds: float
    check_seconds: float
    timed_out: bool = False


class SaberBaseline:
    """Full-sparse, unguarded value-flow UAF detection à la Saber."""

    def __init__(self, time_budget: Optional[float] = None) -> None:
        self.time_budget = time_budget

    def build_vfg(self, module: IRModule) -> tuple:
        """The Fig. 7 measurement target: points-to + VFG construction."""
        start = time.perf_counter()
        deadline = start + self.time_budget if self.time_budget is not None else None
        pts = andersen(module, deadline=deadline)
        graph = UnguardedVFG()
        graph.add_copy_edges(module)
        stores, loads = store_load_sites(module)
        timed_out = deadline is not None and time.perf_counter() > deadline
        # Exhaustive pairwise aliasing: the quadratic pair scan over an
        # exhaustive points-to result is the cost center.
        for store in stores:
            if timed_out:
                break
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                break
            store_pts = pts.points_to(store.pointer)
            if not store_pts:
                continue
            for load in loads:
                if store_pts & pts.points_to(load.pointer):
                    graph.add(store.value, load.dst)
        elapsed = time.perf_counter() - start
        return pts, graph, elapsed, timed_out

    def detect_uaf(self, module: IRModule) -> SaberResult:
        pts, graph, build_seconds, timed_out = self.build_vfg(module)
        start = time.perf_counter()
        reports = [] if timed_out else uaf_reports(module, pts, graph)
        return SaberResult(
            reports=reports,
            vfg_nodes=graph.num_nodes,
            vfg_edges=graph.num_edges,
            pointsto_facts=pts.total_facts,
            build_seconds=build_seconds,
            check_seconds=time.perf_counter() - start,
            timed_out=timed_out,
        )
