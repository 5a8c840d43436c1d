"""Inter-thread data-race checker (ROADMAP item 4; cf. Miné's lock-aware
interference analysis, PAPERS.md).

Source: a store to an escaped memory object.  The search starts from the
*object's* node, so VFG reachability enumerates every alias of the cell
in every thread — exactly the UAF enumeration pattern.  Sink: any other
access (load or store) of an alias that

* may happen in parallel with the source (structural MHP — fork/join
  ordered pairs are not races),
* is not ordered through a condition-variable signal→wait chain, and
* shares no lock: with ``model_locks`` the pair is discarded when both
  accesses sit in critical sections of the same mutex (the lock-set
  filter that keeps ``lock_protected_safe.mcc`` clean while
  ``lock_wrong_mutex.mcc`` fires).

What remains goes to the solver: Φ_guards ∧ Φ_po (with the mutex and
signal→wait extensions) ∧ the alias guard must be satisfiable — a pair
whose aliasing or path conditions contradict is not a race (the paper's
Fig. 2 value-flow precision argument applied to races).
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import Variable
from ..smt.terms import TRUE, BoolTerm
from ..vfg.graph import DefNode, ObjNode, VFGNode
from .base import SourceSinkChecker
from .concurrency import lockset_disjoint, sorted_objects, sync_free

__all__ = ["DataRaceChecker"]


class DataRaceChecker(SourceSinkChecker):
    kind = "data-race"

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        # Writes are the racy half we enumerate from; read-write pairs are
        # found from the write side, write-write pairs once (label order).
        interference = self.bundle.interference
        for inst in self.bundle.module.all_instructions():
            if not (isinstance(inst, StoreInst) and isinstance(inst.pointer, Variable)):
                continue
            for obj in sorted_objects(interference.points_to_objects(inst.pointer)):
                if obj not in interference.escaped:
                    continue  # thread-local cell: cannot race
                alias = interference.pted_guard(obj, DefNode(inst.pointer))
                yield ObjNode(obj), inst, alias if alias is not None else TRUE

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        orders = self.realizability.orders
        mhp = self.bundle.mhp
        for use in self.uses.pointer_uses.get(var, ()):
            if not isinstance(use, (LoadInst, StoreInst)):
                continue
            if use is source_inst:
                continue
            # Write-write pairs are symmetric: report each once, from the
            # textually earlier store (the later store finds the pair too
            # and is dropped here, so each pair is reported once).
            if isinstance(use, StoreInst) and use.label < source_inst.label:
                continue
            if not mhp.may_happen_in_parallel(source_inst, use):
                continue  # fork/join ordered: not a race
            if not sync_free(orders, source_inst, use):
                continue  # signal→wait ordered: not a race
            if not lockset_disjoint(orders.lock_analysis, source_inst, use):
                continue  # common mutex: mutual exclusion protects the pair
            yield use

    def sink_node_set(self) -> Set[VFGNode]:
        return self.uses.pointer_def_nodes(LoadInst, StoreInst)
