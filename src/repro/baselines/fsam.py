"""FSAM-style baseline detector (paper §7.1, citing Sui, Di, Xue [60]).

Pipeline: exhaustive *flow-sensitive* points-to with per-statement memory
snapshots and thread-aware def-use chains → unguarded VFG → plain
source→sink reachability for use-after-free.

Flow sensitivity kills some spurious intra-thread flows relative to the
Saber baseline (fewer reports in Table 1), but there is still no path or
interleaving reasoning, so the guard- and order-infeasible patterns are
all reported; and the per-statement snapshots are the memory wall of
Fig. 7b.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..ir.module import IRModule
from ..ir.values import MemObject
from ..pointer.flowsensitive import flow_sensitive_pointsto
from ..threads.callgraph import build_thread_call_graph
from ..threads.mhp import MhpAnalysis
from .common import BaselineReport, UnguardedVFG, store_load_sites, uaf_reports

__all__ = ["FsamBaseline", "FsamResult"]


@dataclass
class FsamResult:
    reports: List[BaselineReport]
    vfg_nodes: int
    vfg_edges: int
    pointsto_facts: int
    iterations: int
    build_seconds: float
    check_seconds: float
    timed_out: bool = False


class FsamBaseline:
    """Sparse flow-sensitive multithreaded UAF detection à la FSAM."""

    def __init__(self, time_budget: Optional[float] = None) -> None:
        self.time_budget = time_budget

    def build_vfg(self, module: IRModule) -> tuple:
        start = time.perf_counter()
        deadline = start + self.time_budget if self.time_budget is not None else None
        tcg = build_thread_call_graph(module)
        mhp = MhpAnalysis(tcg)
        pts = flow_sensitive_pointsto(module, tcg, deadline=deadline)
        graph = UnguardedVFG()
        graph.add_copy_edges(module)
        stores, loads = store_load_sites(module)
        # The points-to result says explicitly whether the deadline cut
        # its fixed point short (inferring it from the clock alone could
        # miss a partial result that finished just under the deadline).
        timed_out = pts.timed_out or (
            deadline is not None and time.perf_counter() > deadline
        )
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
                shared = {
                    o
                    for o in store_pts & pts.points_to(load.pointer)
                    if isinstance(o, MemObject)
                }
                if not shared:
                    continue
                # Thread-aware def-use: the store reaches the load either
                # flow-sensitively (its value is in the load's incoming
                # memory snapshot) or concurrently (MHP).
                memory = pts.memory_before(load.label)
                value_set = pts.points_to(store.value)
                reaches = any(
                    value_set & memory.get(o, frozenset()) for o in shared
                ) or bool(
                    value_set
                    and mhp.may_happen_in_parallel(store, load)
                )
                if reaches or not value_set:
                    graph.add(store.value, load.dst)
        elapsed = time.perf_counter() - start
        return pts, graph, elapsed, timed_out

    def detect_uaf(self, module: IRModule) -> FsamResult:
        pts, graph, build_seconds, timed_out = self.build_vfg(module)
        start = time.perf_counter()
        reports = [] if timed_out else uaf_reports(module, pts, graph)
        return FsamResult(
            reports=reports,
            vfg_nodes=graph.num_nodes,
            vfg_edges=graph.num_edges,
            pointsto_facts=pts.total_facts,
            iterations=pts.iterations,
            build_seconds=build_seconds,
            check_seconds=time.perf_counter() - start,
            timed_out=timed_out,
        )
