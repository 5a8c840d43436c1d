"""Andersen-style inclusion-based points-to analysis.

This is the exhaustive, flow-insensitive pointer analysis underlying the
Saber baseline (paper §7.1: "Saber performs an Andersen-style,
flow-insensitive points-to analysis, which can trivially model the
thread interference").  The classic worklist formulation: subset
constraints between points-to sets, with load/store constraints adding
copy edges dynamically as sets grow.  Worst-case cubic — which is
exactly the scalability wall the paper's Fig. 7 exhibits for Saber on
larger subjects.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set

from ..ir.instructions import (
    AddrOfInst,
    AllocInst,
    CallInst,
    CopyInst,
    ForkInst,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.module import IRModule
from ..ir.values import FunctionRef, MemObject, Value, Variable

__all__ = ["AndersenResult", "andersen"]

_Node = object  # Variable | MemObject ("content of o" node)


class AndersenResult:
    def __init__(self, pts: Dict[_Node, Set[object]]) -> None:
        self._pts = pts

    def points_to(self, value: Value) -> FrozenSet[object]:
        if isinstance(value, FunctionRef):
            return frozenset({value})
        return frozenset(self._pts.get(value, ()))

    def may_alias(self, a: Value, b: Value) -> bool:
        return bool(self.points_to(a) & self.points_to(b))

    def callees(self, value: Value) -> FrozenSet[str]:
        return frozenset(
            t.name for t in self.points_to(value) if isinstance(t, FunctionRef)
        )

    @property
    def total_facts(self) -> int:
        return sum(len(s) for s in self._pts.values())


def andersen(module: IRModule, deadline: Optional[float] = None) -> AndersenResult:
    """Solve the inclusion constraints of a module to a fixed point.

    ``deadline`` (a ``time.perf_counter`` instant) bounds wall time for
    benchmark budgets: the solver stops at the first check past it, and
    the partial result is a sound under-approximation of the fixed point
    (every set a subset of the full one); the caller flags the run as
    timed out.
    """
    pts: Dict[_Node, Set[object]] = {}
    succs: Dict[_Node, Set[_Node]] = {}  # copy edges: pts(src) ⊆ pts(dst)
    load_uses: Dict[_Node, List[_Node]] = {}  # p = *q: q -> p
    store_uses: Dict[_Node, List[_Node]] = {}  # *p = q: p -> q

    def pset(n: _Node) -> Set[object]:
        s = pts.get(n)
        if s is None:
            s = set()
            pts[n] = s
        return s

    def add_edge(src: _Node, dst: _Node, worklist: deque) -> None:
        if dst in succs.setdefault(src, set()):
            return
        succs[src].add(dst)
        if pset(src):
            worklist.append(src)

    worklist: deque = deque()
    taken = _address_taken_functions(module)

    def seed(n: _Node, target: object) -> None:
        s = pset(n)
        if target not in s:
            s.add(target)
            worklist.append(n)

    # ----- constraint generation (one pass; calls resolved on the fly) -----
    for func in module.functions.values():
        for inst in func.body:
            if isinstance(inst, (AllocInst, AddrOfInst)):
                seed(inst.dst, inst.obj)
            elif isinstance(inst, CopyInst):
                if isinstance(inst.src, Variable):
                    add_edge(inst.src, inst.dst, worklist)
                elif isinstance(inst.src, FunctionRef):
                    seed(inst.dst, inst.src)
            elif isinstance(inst, PhiInst):
                for value, _g in inst.incomings:
                    if isinstance(value, Variable):
                        add_edge(value, inst.dst, worklist)
                    elif isinstance(value, FunctionRef):
                        seed(inst.dst, value)
            elif isinstance(inst, LoadInst):
                if isinstance(inst.pointer, Variable):
                    load_uses.setdefault(inst.pointer, []).append(inst.dst)
            elif isinstance(inst, StoreInst):
                if isinstance(inst.pointer, Variable) and isinstance(
                    inst.value, (Variable, FunctionRef)
                ):
                    store_uses.setdefault(inst.pointer, []).append(inst.value)
            elif isinstance(inst, (CallInst, ForkInst)):
                _bind_call(module, taken, inst, add_edge, seed, worklist)

    steps = 0
    while worklist:
        if deadline is not None and steps % 4096 == 0 and time.perf_counter() > deadline:
            break
        steps += 1
        node = worklist.popleft()
        node_pts = pset(node)
        # Load/store constraints instantiate new copy edges per object.
        for obj in list(node_pts):
            if not isinstance(obj, MemObject):
                continue
            for dst in load_uses.get(node, ()):
                add_edge(obj, dst, worklist)
            for src in store_uses.get(node, ()):
                if isinstance(src, FunctionRef):
                    seed(obj, src)
                else:
                    add_edge(src, obj, worklist)
        # Propagate along copy edges.
        for dst in succs.get(node, ()):  # pts(node) ⊆ pts(dst)
            dst_pts = pset(dst)
            new = node_pts - dst_pts
            if new:
                dst_pts |= new
                worklist.append(dst)
    return AndersenResult(pts)


def _bind_call(
    module: IRModule, taken: List[str], inst, add_edge, seed, worklist
) -> None:
    """Direct call/fork binding; indirect targets are bound conservatively
    to every function whose address is taken (``taken``, from
    :func:`_address_taken_functions`: a flow-insensitive closure)."""
    targets: List[str] = []
    if isinstance(inst.callee, FunctionRef):
        targets = [inst.callee.name]
    else:
        # Conservative: any address-taken function with a matching arity.
        targets = [
            name
            for name in taken
            if len(module.functions[name].params) == len(inst.args)
        ]
    for name in targets:
        callee = module.functions.get(name)
        if callee is None:
            continue
        for formal, actual in zip(callee.params, inst.args):
            if isinstance(actual, Variable):
                add_edge(actual, formal, worklist)
            elif isinstance(actual, FunctionRef):
                seed(formal, actual)
        dst = getattr(inst, "dst", None)
        if dst is not None:
            for value, _g in callee.returns:
                if isinstance(value, Variable):
                    add_edge(value, dst, worklist)
                elif isinstance(value, FunctionRef):
                    seed(dst, value)


def _address_taken_functions(module: IRModule) -> List[str]:
    """The module's functions used as values, sorted by name.  The solver
    computes it once per call rather than caching it per module: a cache
    keyed by ``id(module)`` outlives the module and answers for the next
    module allocated at the same address."""
    taken: Set[str] = set()
    for func in module.functions.values():
        for inst in func.body:
            for value in inst.used_values():
                if isinstance(value, FunctionRef):
                    taken.add(value.name)
            if isinstance(inst, CopyInst) and isinstance(inst.src, FunctionRef):
                taken.add(inst.src.name)
    return sorted(t for t in taken if t in module.functions)
