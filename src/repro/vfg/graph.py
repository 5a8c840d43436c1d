"""The guarded value-flow graph (VFG).

Nodes (paper §3.1, Fig. 2b):

* :class:`DefNode` — ``v@ℓ``: the (unique, SSA) definition of a top-level
  variable;
* :class:`StoreNode` — the stored-value occurrence at a store statement
  (``b@ℓ13`` in Fig. 2);
* :class:`ObjNode` — a memory object ``o`` (used for escape/pointed-to-by
  reachability, like the ``o1`` node of Fig. 2b);
* :class:`NullNode` — an occurrence of the ``null`` constant (source node
  for the NULL-deref checker).

Every edge carries a guard (the condition under which the value flows,
paper Fig. 6 / Eq. 1) and a kind:

* ``direct``  — SSA copy/phi flows,
* ``alloc``   — object to the pointer receiving its address,
* ``store``   — stored value into its store statement,
* ``load``    — store statement to a load's destination (an *indirect*
  flow; ``interthread=True`` marks interference dependence),
* ``call``/``ret``/``forkarg`` — parameter, return and fork-argument
  binding (labelled with the call site for context-sensitive matching).

Edges whose guard is syntactically FALSE are never added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import MemObject, Variable
from ..smt.terms import FALSE, BoolTerm

__all__ = [
    "VFGNode",
    "DefNode",
    "StoreNode",
    "ObjNode",
    "NullNode",
    "VFGEdge",
    "ValueFlowGraph",
]


@dataclass(frozen=True, slots=True)
class DefNode:
    """``v@ℓ`` — the SSA definition of ``var`` (``inst`` may be None for
    parameters and synthetic initial values)."""

    var: Variable

    def __repr__(self) -> str:
        return f"def({self.var!r})"


@dataclass(frozen=True, slots=True)
class StoreNode:
    """The stored value entering memory at a store instruction."""

    inst: StoreInst

    def __repr__(self) -> str:
        return f"store@ℓ{self.inst.label}"


@dataclass(frozen=True, slots=True)
class ObjNode:
    """A memory object; origin for pointed-to-by reachability."""

    obj: MemObject

    def __repr__(self) -> str:
        return f"obj({self.obj!r})"


@dataclass(frozen=True, slots=True)
class NullNode:
    """A ``null`` constant occurrence at an instruction."""

    inst: Instruction

    def __repr__(self) -> str:
        return f"null@ℓ{self.inst.label}"


VFGNode = object  # union of the four node classes


@dataclass(frozen=True, slots=True)
class VFGEdge:
    src: VFGNode
    dst: VFGNode
    guard: BoolTerm
    kind: str  # 'direct' | 'alloc' | 'store' | 'load' | 'call' | 'ret' | 'forkarg'
    callsite: Optional[int] = None  # label, for call/ret/forkarg
    obj: Optional[MemObject] = None  # for 'load' edges: the memory object
    store: Optional[StoreInst] = None  # for 'load' edges
    load: Optional[LoadInst] = None  # for 'load' edges
    interthread: bool = False  # True = interference dependence

    def __repr__(self) -> str:
        arrow = "⇢" if self.interthread else "→"
        return f"{self.src!r} {arrow} {self.dst!r} [{self.kind}]"


class ValueFlowGraph:
    """Mutable guarded VFG with forward/backward adjacency."""

    def __init__(self) -> None:
        self._out: Dict[VFGNode, List[VFGEdge]] = {}
        self._in: Dict[VFGNode, List[VFGEdge]] = {}
        self._edge_keys: set = set()
        #: every edge in insertion order — an edge's index here is its
        #: global *ordinal*.  Per-node ``_out``/``_in`` lists are ordinal-
        #: sorted by construction, which is what lets the summary layer
        #: rebuild any adjacency list exactly from per-function spans.
        self._edges: List[VFGEdge] = []
        self.num_edges = 0

    # ----- construction ---------------------------------------------------

    def add_edge(
        self,
        src: VFGNode,
        dst: VFGNode,
        guard: BoolTerm,
        kind: str,
        callsite: Optional[int] = None,
        obj: Optional[MemObject] = None,
        store: Optional[StoreInst] = None,
        load: Optional[LoadInst] = None,
        interthread: bool = False,
    ) -> Optional[VFGEdge]:
        """Add an edge unless its guard is FALSE or it is a duplicate.

        Returns the edge, or None when suppressed.
        """
        if guard is FALSE or src == dst:
            return None
        # One hash of the key: ``add`` and a size check, not ``in`` + ``add``.
        keys = self._edge_keys
        seen = len(keys)
        keys.add((src, dst, kind, callsite, obj, id(store), id(load), interthread))
        if len(keys) == seen:
            return None
        edge = VFGEdge(src, dst, guard, kind, callsite, obj, store, load, interthread)
        # Every node is a key of both maps, so one lookup per side tells
        # whether the node is new; ``_out`` keeps first-seen node order.
        succ = self._out.get(src)
        if succ is None:
            succ = self._out[src] = []
            self._in[src] = []
        pred = self._in.get(dst)
        if pred is None:
            pred = self._in[dst] = []
            self._out[dst] = []
        succ.append(edge)
        pred.append(edge)
        self._edges.append(edge)
        self.num_edges += 1
        return edge

    # ----- queries -----------------------------------------------------------

    def out_edges(self, node: VFGNode) -> List[VFGEdge]:
        return self._out.get(node, [])

    def in_edges(self, node: VFGNode) -> List[VFGEdge]:
        return self._in.get(node, [])

    def nodes(self) -> Iterator[VFGNode]:
        return iter(self._out.keys())

    def edge_slice(self, start: int, end: int) -> List[VFGEdge]:
        """The edges with ordinals ``start <= i < end`` (insertion order);
        the summary layer's view of one function's owned edge span."""
        return self._edges[start:end]

    def edges(self) -> Iterator[VFGEdge]:
        for edges in self._out.values():
            yield from edges

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    def interference_edges(self) -> List[VFGEdge]:
        return [e for e in self.edges() if e.interthread]

    def pretty(self, max_edges: int = 200) -> str:
        lines = [f"VFG: {self.num_nodes} nodes, {self.num_edges} edges"]
        for i, edge in enumerate(self.edges()):
            if i >= max_edges:
                lines.append(f"... ({self.num_edges - max_edges} more)")
                break
            guard = edge.guard.pretty()
            note = f"  [{guard}]" if guard != "true" else ""
            lines.append(f"  {edge!r}{note}")
        return "\n".join(lines)
