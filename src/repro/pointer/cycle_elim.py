"""Andersen's analysis with online cycle elimination.

Inclusion-constraint graphs develop large cycles (mutual copies), and
every node on a cycle provably ends with the same points-to set — the
classic optimization (Fähndrich et al.; Hardekopf & Lin's lazy cycle
detection, which SVF/Saber-class tools implement) collapses cycles into
a single representative as they are discovered.  This variant exists to
make the baseline comparison fair: the Fig. 7 Saber curve is measured
with the *stronger* of the two solvers
(``andersen(collapse_cycles=True)`` delegates here).

Algorithm: the standard worklist solver over union-find representatives,
with *lazy cycle detection* — when propagation along a copy edge leaves
the target's set unchanged-and-equal to the source's, a DFS checks for a
cycle through that edge and the whole strongly-connected component is
merged.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

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
from .andersen import AndersenResult, _address_taken_functions

__all__ = ["andersen_collapsing"]


class _Graph:
    """Constraint graph over union-find representatives."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}
        self.pts: Dict[object, Set[object]] = {}
        self.succs: Dict[object, Set[object]] = {}
        self.load_uses: Dict[object, List[object]] = {}
        self.store_uses: Dict[object, List[object]] = {}
        self.collapsed = 0

    def find(self, n: object) -> object:
        root = n
        while self.parent.get(root, root) is not root:
            root = self.parent.get(root, root)
        while self.parent.get(n, n) is not root:
            self.parent[n], n = root, self.parent.get(n, n)
        return root

    def pset(self, n: object) -> Set[object]:
        n = self.find(n)
        s = self.pts.get(n)
        if s is None:
            s = set()
            self.pts[n] = s
        return s

    def add_edge(self, src: object, dst: object) -> bool:
        src, dst = self.find(src), self.find(dst)
        if src is dst:
            return False
        succs = self.succs.setdefault(src, set())
        if dst in succs:
            return False
        succs.add(dst)
        return True

    def merge(self, a: object, b: object) -> object:
        """Union two representatives, merging their sets and edges."""
        a, b = self.find(a), self.find(b)
        if a is b:
            return a
        self.parent[b] = a
        self.pts.setdefault(a, set()).update(self.pts.pop(b, ()))
        self.succs.setdefault(a, set()).update(self.succs.pop(b, ()))
        self.succs[a].discard(a)
        self.succs[a].discard(b)
        self.load_uses.setdefault(a, []).extend(self.load_uses.pop(b, ()))
        self.store_uses.setdefault(a, []).extend(self.store_uses.pop(b, ()))
        self.collapsed += 1
        return a

    def collapse_cycle_through(self, start: object) -> bool:
        """DFS from ``start``; if a cycle through ``start`` exists, merge
        every node on it.  Returns True when something was merged."""
        start = self.find(start)
        stack: List[Tuple[object, List[object]]] = [(start, [start])]
        seen: Set[object] = set()
        while stack:
            node, path = stack.pop()
            for succ in list(self.succs.get(node, ())):
                succ = self.find(succ)
                if succ is start and len(path) > 1:
                    rep = start
                    for member in path[1:]:
                        rep = self.merge(rep, member)
                    return True
                if succ not in seen:
                    seen.add(succ)
                    if len(path) < 64:  # bound the search depth
                        stack.append((succ, path + [succ]))
        return False


def andersen_collapsing(
    module: IRModule,
    max_steps: Optional[int] = None,
    deadline: Optional[float] = None,
) -> AndersenResult:
    """Inclusion-based points-to with lazy cycle elimination."""
    g = _Graph()
    worklist: deque = deque()
    taken = _address_taken_functions(module)

    def seed(n: object, target: object) -> None:
        s = g.pset(n)
        if target not in s:
            s.add(target)
            worklist.append(g.find(n))

    def edge(src: object, dst: object) -> None:
        if g.add_edge(src, dst) and g.pset(src):
            worklist.append(g.find(src))

    def bind_call(inst) -> None:
        if isinstance(inst.callee, FunctionRef):
            targets = [inst.callee.name]
        else:
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
                    edge(actual, formal)
                elif isinstance(actual, FunctionRef):
                    seed(formal, actual)
            dst = getattr(inst, "dst", None)
            if dst is not None:
                for value, _g in callee.returns:
                    if isinstance(value, Variable):
                        edge(value, dst)
                    elif isinstance(value, FunctionRef):
                        seed(dst, value)

    for func in module.functions.values():
        for inst in func.body:
            if isinstance(inst, (AllocInst, AddrOfInst)):
                seed(inst.dst, inst.obj)
            elif isinstance(inst, CopyInst):
                if isinstance(inst.src, Variable):
                    edge(inst.src, inst.dst)
                elif isinstance(inst.src, FunctionRef):
                    seed(inst.dst, inst.src)
            elif isinstance(inst, PhiInst):
                for value, _guard in inst.incomings:
                    if isinstance(value, Variable):
                        edge(value, inst.dst)
                    elif isinstance(value, FunctionRef):
                        seed(inst.dst, value)
            elif isinstance(inst, LoadInst):
                if isinstance(inst.pointer, Variable):
                    g.load_uses.setdefault(g.find(inst.pointer), []).append(inst.dst)
            elif isinstance(inst, StoreInst):
                if isinstance(inst.pointer, Variable) and isinstance(
                    inst.value, (Variable, FunctionRef)
                ):
                    g.store_uses.setdefault(g.find(inst.pointer), []).append(
                        inst.value
                    )
            elif isinstance(inst, (CallInst, ForkInst)):
                bind_call(inst)

    steps = 0
    while worklist:
        if max_steps is not None and steps >= max_steps:
            break
        if deadline is not None and steps % 4096 == 0 and time.perf_counter() > deadline:
            break
        steps += 1
        node = g.find(worklist.popleft())
        node_pts = g.pset(node)
        for obj in list(node_pts):
            if not isinstance(obj, MemObject):
                continue
            for dst in g.load_uses.get(node, ()):
                edge(obj, dst)
            for src in g.store_uses.get(node, ()):
                if isinstance(src, FunctionRef):
                    seed(obj, src)
                else:
                    edge(src, obj)
        stalled = []
        for dst in list(g.succs.get(node, ())):
            dst = g.find(dst)
            if dst is node:
                continue
            dst_pts = g.pset(dst)
            new = node_pts - dst_pts
            if new:
                dst_pts |= new
                worklist.append(dst)
            elif node_pts and node_pts == dst_pts:
                stalled.append(dst)
        # Lazy cycle detection on stalled, set-equal edges.
        for dst in stalled:
            if g.find(dst) is g.find(node):
                continue
            if g.collapse_cycle_through(g.find(node)):
                worklist.append(g.find(node))
                break

    # Project representative sets back to every member node.
    resolved: Dict[object, Set[object]] = {}
    members: Dict[object, List[object]] = {}
    for n in list(g.parent) + list(g.pts):
        members.setdefault(g.find(n), []).append(n)
    for rep, pts in g.pts.items():
        rep = g.find(rep)
        for member in members.get(rep, [rep]):
            resolved[member] = g.pts.get(g.find(rep), set())
        resolved[rep] = g.pts.get(rep, pts)
    result = AndersenResult(resolved)
    result.collapsed_nodes = g.collapsed  # type: ignore[attr-defined]
    return result
