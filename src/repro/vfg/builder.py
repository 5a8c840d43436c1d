"""The product of the first two phases of Fig. 1.

The pipeline (:mod:`repro.analysis.passes`) runs Steensgaard's
analysis, the thread call graph, MHP, Alg. 1 (data dependence) and
Alg. 2 (interference dependence) and collects their results in a
:class:`VFGBundle`: everything the bug-checking stage needs.  A caller
gets it as ``Canary.analyze_module(module, keep_bundle=True).bundle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import StoreInst
from ..ir.module import IRModule
from ..ir.values import MemObject
from ..pointer.steensgaard import SteensgaardResult
from ..smt.terms import BoolTerm
from ..threads.callgraph import ThreadCallGraph
from ..threads.mhp import MhpAnalysis
from .dataflow import DataDependenceAnalysis
from .graph import ValueFlowGraph
from .interference import InterferenceAnalysis

__all__ = ["VFGBundle"]


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

