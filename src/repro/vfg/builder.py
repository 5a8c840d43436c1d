"""End-to-end VFG construction: the first two phases of Fig. 1.

``build_vfg`` wires together Steensgaard's analysis, the thread call
graph, MHP, Alg. 1 (data dependence) and Alg. 2 (interference
dependence) and returns a :class:`VFGBundle` with everything the
bug-checking stage needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import StoreInst
from ..ir.module import IRModule
from ..ir.values import MemObject
from ..pointer.steensgaard import SteensgaardResult, steensgaard
from ..smt.terms import BoolTerm
from ..threads.callgraph import ThreadCallGraph, build_thread_call_graph
from ..threads.mhp import MhpAnalysis
from .dataflow import DataDependenceAnalysis
from .graph import ValueFlowGraph
from .interference import InterferenceAnalysis

__all__ = ["VFGBundle", "build_vfg"]


@dataclass
class VFGBundle:
    """The interference-aware guarded VFG plus the analyses behind it."""

    module: IRModule
    vfg: ValueFlowGraph
    tcg: ThreadCallGraph
    mhp: MhpAnalysis
    dataflow: DataDependenceAnalysis
    interference: InterferenceAnalysis
    pointsto: SteensgaardResult
    build_seconds: float = 0.0
    #: per-function summaries (:class:`repro.vfg.summaries.SummaryIndex`)
    #: when the run computed them
    summary_index: Optional[object] = None

    _def_index: Optional[Dict] = None

    @property
    def object_stores(self) -> Dict[MemObject, List[Tuple[StoreInst, BoolTerm]]]:
        return self.interference.object_stores

    @property
    def def_index(self) -> Dict:
        """Variable -> defining instruction (lazily built)."""
        if self._def_index is None:
            index = {}
            for inst in self.module.all_instructions():
                var = inst.defined_var()
                if var is not None:
                    index[var] = inst
            self._def_index = index
        return self._def_index

    def summary(self) -> Dict[str, int]:
        return {
            "instructions": self.module.size(),
            "threads": len(self.tcg.threads),
            "vfg_nodes": self.vfg.num_nodes,
            "vfg_edges": self.vfg.num_edges,
            "interference_edges": self.interference.interference_edge_count,
            "escaped_objects": len(self.interference.escaped),
            "fixpoint_rounds": self.interference.rounds,
        }


def build_vfg(
    module: IRModule,
    max_content_entries: int = 16,
    max_interference_rounds: int = 20,
    prune_guards: bool = True,
    use_mhp: bool = True,
) -> VFGBundle:
    """Build the interference-aware VFG for a lowered module."""
    start = time.perf_counter()
    pointsto = steensgaard(module)
    tcg = build_thread_call_graph(module, pointsto)
    mhp = MhpAnalysis(tcg)
    dataflow = DataDependenceAnalysis(
        module, tcg, max_content_entries=max_content_entries, prune_guards=prune_guards
    )
    dataflow.run()
    interference = InterferenceAnalysis(
        dataflow,
        mhp,
        max_rounds=max_interference_rounds,
        use_mhp=use_mhp,
        prune_guards=prune_guards,
    )
    interference.run()
    return VFGBundle(
        module=module,
        vfg=dataflow.vfg,
        tcg=tcg,
        mhp=mhp,
        dataflow=dataflow,
        interference=interference,
        pointsto=pointsto,
        build_seconds=time.perf_counter() - start,
    )
