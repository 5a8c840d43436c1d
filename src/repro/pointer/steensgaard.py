"""Steensgaard's unification-based points-to analysis.

The paper (§6) uses Steensgaard's almost-linear-time analysis to resolve
function pointers when building the *thread call graph*, because fork
targets are often passed as function pointers and a flow-insensitive
analysis suffices for call-graph construction (citing [25, 44, 59]).

The implementation is the classic union-find formulation: each value has
an equivalence class; every class has one points-to successor class; a
store/load unifies through the successor.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..ir.instructions import (
    AddrOfInst,
    AllocInst,
    CallInst,
    CopyInst,
    ForkInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.module import IRModule
from ..ir.values import FunctionRef, MemObject, Value, Variable

__all__ = ["SteensgaardResult", "steensgaard"]


class _UnionFind:
    """Union by size with path compression; on a union the smaller
    ``contents`` set is merged into the larger (Tarjan's bound), so no
    element moves more than a logarithmic number of times."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        # class representative -> number of members
        self._size: Dict[int, int] = {}
        self._next = 0
        self._of: Dict[object, int] = {}
        # class representative -> pointee class (the single Steensgaard successor)
        self.pointee: Dict[int, int] = {}
        # class representative -> contents (objects / function refs in the
        # class); a class with none has no entry
        self.contents: Dict[int, Set[object]] = {}
        #: number of unions that merged two distinct classes so far
        self.merges = 0

    def node(self, item: object) -> int:
        idx = self._of.get(item)
        if idx is None:
            idx = self._next
            self._next += 1
            self._of[item] = idx
            self._parent[idx] = idx
            self._size[idx] = 1
            if isinstance(item, (MemObject, FunctionRef)):
                self.contents[idx] = {item}
        return idx

    def find(self, idx: int) -> int:
        root = idx
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[idx] != root:
            self._parent[idx], idx = root, self._parent[idx]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.merges += 1
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        moved = self.contents.pop(rb, None)
        if moved is not None:
            kept = self.contents.get(ra)
            if kept is None:
                self.contents[ra] = moved
            elif len(kept) < len(moved):
                moved |= kept
                self.contents[ra] = moved
            else:
                kept |= moved
        pa, pb = self.pointee.get(ra), self.pointee.pop(rb, None)
        if pa is not None and pb is not None:
            merged = self.union(pa, pb)
            self.pointee[self.find(ra)] = self.find(merged)
        elif pb is not None:
            self.pointee[ra] = pb
        return self.find(ra)

    def points_to_class(self, idx: int) -> int:
        """The pointee class of ``idx``'s class, created on demand."""
        root = self.find(idx)
        succ = self.pointee.get(root)
        if succ is None:
            succ = self.node(("$pointee", root))
            self.pointee[root] = succ
        return self.find(succ)


class SteensgaardResult:
    """Query interface over the computed equivalence classes."""

    def __init__(self, uf: _UnionFind) -> None:
        self._uf = uf

    def points_to(self, value: Value) -> FrozenSet[object]:
        """Objects and function refs the value may point to."""
        idx = self._uf._of.get(value)
        if idx is None:
            return frozenset()
        pointee = self._uf.pointee.get(self._uf.find(idx))
        if pointee is None:
            return frozenset()
        return frozenset(self._uf.contents.get(self._uf.find(pointee), ()))

    def callees(self, value: Value) -> FrozenSet[str]:
        """Function names a call/fork through ``value`` may target."""
        if isinstance(value, FunctionRef):
            return frozenset({value.name})
        return frozenset(
            item.name for item in self.points_to(value) if isinstance(item, FunctionRef)
        )

    def may_alias(self, a: Value, b: Value) -> bool:
        pa, pb = self.points_to(a), self.points_to(b)
        if not pa or not pb:
            ia = self._uf._of.get(a)
            ib = self._uf._of.get(b)
            if ia is None or ib is None:
                return False
            ra = self._uf.find(self._uf.points_to_class(ia))
            rb = self._uf.find(self._uf.points_to_class(ib))
            return ra == rb
        return bool(pa & pb)


def steensgaard(module: IRModule) -> SteensgaardResult:
    """Run Steensgaard's analysis over a lowered module.

    One pass over all instructions with union-find; inter-procedural
    assignments (arguments, returns, fork parameters) unify directly.
    Unification never undoes a constraint it has enforced, so only call
    and fork sites whose callee is not a :class:`FunctionRef` need
    another look: their targets grow as classes merge.  Those sites are
    revisited until a round merges no class, a true fixpoint.  Every
    round but the last merges at least one of finitely many classes, so
    the loop ends.
    """
    uf = _UnionFind()
    result = SteensgaardResult(uf)

    def assign(dst: Value, src: Value) -> None:
        """``dst = src``: a FunctionRef behaves like ``&f`` (dst points to
        the function); other values unify whole classes (a sound, standard
        strengthening of the pointee-join rule)."""
        if isinstance(src, FunctionRef):
            uf.union(uf.points_to_class(uf.node(dst)), uf.node(src))
        elif isinstance(src, Variable):
            uf.union(uf.node(dst), uf.node(src))

    def process_call(inst) -> None:
        for name in result.callees(inst.callee):
            callee = module.functions.get(name)
            if callee is None:
                continue
            for formal, actual in zip(callee.params, inst.args):
                assign(formal, actual)
            if isinstance(inst, CallInst) and inst.dst is not None:
                for value, _guard in callee.returns:
                    assign(inst.dst, value)

    indirect: List[Instruction] = []
    for func in module.functions.values():
        for inst in func.body:
            if isinstance(inst, (AllocInst, AddrOfInst)):
                # dst points to obj: obj joins dst's pointee class.
                pointee = uf.points_to_class(uf.node(inst.dst))
                uf.union(pointee, uf.node(inst.obj))
            elif isinstance(inst, CopyInst):
                assign(inst.dst, inst.src)
            elif isinstance(inst, PhiInst):
                for value, _guard in inst.incomings:
                    assign(inst.dst, value)
            elif isinstance(inst, LoadInst):
                # dst = *p:  pt([dst]) ∪= pt(pt([p]))
                cell = uf.points_to_class(uf.points_to_class(uf.node(inst.pointer)))
                uf.union(uf.points_to_class(uf.node(inst.dst)), cell)
            elif isinstance(inst, StoreInst):
                # *p = v:  pt(pt([p])) ∪= pt([v]); a FunctionRef value
                # lands *inside* the cell class (like storing &f).
                cell = uf.points_to_class(uf.points_to_class(uf.node(inst.pointer)))
                if isinstance(inst.value, FunctionRef):
                    uf.union(cell, uf.node(inst.value))
                elif isinstance(inst.value, Variable):
                    uf.union(cell, uf.points_to_class(uf.node(inst.value)))
            elif isinstance(inst, (CallInst, ForkInst)):
                process_call(inst)
                if not isinstance(inst.callee, FunctionRef):
                    indirect.append(inst)

    # Resolving an indirect site can bind new parameters, which can widen
    # the targets of another indirect site: iterate to the fixpoint.
    merges = None
    while indirect and merges != uf.merges:
        merges = uf.merges
        for inst in indirect:
            process_call(inst)
    return result
