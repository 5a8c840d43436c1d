"""Shared machinery for the baseline detectors.

Both baselines build an *unguarded* value-flow graph from an exhaustive
points-to result and report every source→sink reachable pair without any
realizability checking — that is exactly what makes them fast to
describe and imprecise in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..ir.instructions import (
    CallInst,
    CopyInst,
    ForkInst,
    FreeInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.module import IRModule
from ..ir.values import FunctionRef, MemObject, Value, Variable
from ..pointer.andersen import AndersenResult
from ..pointer.flowsensitive import FlowSensitiveResult

__all__ = [
    "UnguardedVFG",
    "BaselineReport",
    "collect_deref_uses",
    "reachable_vars",
    "store_load_sites",
    "uaf_reports",
]


@dataclass
class BaselineReport:
    """A baseline finding: free site and use site, no witness, no guards."""

    kind: str
    source: Instruction
    sink: Instruction

    @property
    def key(self) -> Tuple[int, int]:
        return (self.source.label, self.sink.label)


class UnguardedVFG:
    """Plain def-use graph over variables (no guards, no order info)."""

    def __init__(self) -> None:
        self._succ: Dict[object, Set[object]] = {}
        self.num_edges = 0

    def add(self, src: object, dst: object) -> None:
        succs = self._succ.setdefault(src, set())
        if dst not in succs:
            succs.add(dst)
            self.num_edges += 1

    def successors(self, node: object) -> Set[object]:
        return self._succ.get(node, set())

    @property
    def num_nodes(self) -> int:
        nodes = set(self._succ)
        for succs in self._succ.values():
            nodes |= succs
        return len(nodes)

    def add_copy_edges(self, module: IRModule) -> None:
        """Direct (SSA) flows shared by both baselines."""
        for func in module.functions.values():
            for inst in func.body:
                if isinstance(inst, CopyInst) and isinstance(inst.src, Variable):
                    self.add(inst.src, inst.dst)
                elif isinstance(inst, PhiInst):
                    for value, _g in inst.incomings:
                        if isinstance(value, Variable):
                            self.add(value, inst.dst)
                elif isinstance(inst, (CallInst, ForkInst)):
                    callees = _direct_callees(module, inst)
                    for name in callees:
                        callee = module.functions.get(name)
                        if callee is None:
                            continue
                        for formal, actual in zip(callee.params, inst.args):
                            if isinstance(actual, Variable):
                                self.add(actual, formal)
                        dst = getattr(inst, "dst", None)
                        if dst is not None:
                            for value, _g in callee.returns:
                                if isinstance(value, Variable):
                                    self.add(value, dst)


def _direct_callees(module: IRModule, inst) -> List[str]:
    if isinstance(inst.callee, FunctionRef):
        return [inst.callee.name]
    # Indirect: conservatively all address-taken functions of right arity.
    out = []
    for name, func in module.functions.items():
        if len(func.params) == len(inst.args):
            out.append(name)
    return out


def reachable_vars(graph: UnguardedVFG, roots: Iterable[object]) -> Set[object]:
    seen: Set[object] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.successors(node))
    return seen


def collect_deref_uses(module: IRModule) -> Dict[Variable, List[Instruction]]:
    """var -> instructions dereferencing it (load/store/free)."""
    uses: Dict[Variable, List[Instruction]] = {}
    for func in module.functions.values():
        for inst in func.body:
            ptr: Optional[Value] = None
            if isinstance(inst, (LoadInst, StoreInst)):
                ptr = inst.pointer
            elif isinstance(inst, FreeInst):
                ptr = inst.pointer
            if isinstance(ptr, Variable):
                uses.setdefault(ptr, []).append(inst)
    return uses


def store_load_sites(module: IRModule) -> Tuple[List[StoreInst], List[LoadInst]]:
    """The two sides of a baseline's store × load scan, in module order:
    every store of a variable's value, and every load."""
    stores = [
        i
        for f in module.functions.values()
        for i in f.body
        if isinstance(i, StoreInst) and isinstance(i.value, Variable)
    ]
    loads = [
        i
        for f in module.functions.values()
        for i in f.body
        if isinstance(i, LoadInst)
    ]
    return stores, loads


def uaf_reports(
    module: IRModule,
    pts: Union[AndersenResult, FlowSensitiveResult],
    graph: UnguardedVFG,
) -> List[BaselineReport]:
    """Use-after-free by plain reachability: every dereference of a
    variable that ``graph`` reaches from a variable aliasing a freed
    pointer, once per (free, use) pair, free sites in module order and
    each one's uses in ascending label order."""
    uses = collect_deref_uses(module)
    frees = [
        i
        for f in module.functions.values()
        for i in f.body
        if isinstance(i, FreeInst) and isinstance(i.pointer, Variable)
    ]
    # Roots: every variable aliasing the freed one (same pts objects).
    alias_roots: Dict[MemObject, Set[Variable]] = {}
    for func in module.functions.values():
        for inst in func.body:
            var = inst.defined_var()
            if var is None:
                continue
            for obj in pts.points_to(var):
                if isinstance(obj, MemObject):
                    alias_roots.setdefault(obj, set()).add(var)
    reports: List[BaselineReport] = []
    for free in frees:
        roots: Set[Variable] = set()
        for obj in pts.points_to(free.pointer):
            if isinstance(obj, MemObject):
                roots |= alias_roots.get(obj, set())
        # by label: the reachable set iterates in identity-hash order
        hits: Dict[int, Instruction] = {}
        for var in reachable_vars(graph, roots):
            if not isinstance(var, Variable):
                continue
            for use in uses.get(var, ()):
                if not isinstance(use, FreeInst):
                    hits[use.label] = use
        reports.extend(
            BaselineReport("use-after-free", free, hits[label]) for label in sorted(hits)
        )
    return reports
