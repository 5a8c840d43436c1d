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

from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..ir.instructions import LoadInst, StoreInst
from ..ir.values import MemObject
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


class _Node(tuple):
    """A VFG node: the immutable pair ``(cls, payload)``.

    Hash and equality are the tuple's, so they run in C; the class tag
    keeps nodes of different kinds apart on the same payload (a
    ``*p = null`` store has both ``NullNode(st)`` and ``StoreNode(st)``).
    """

    __slots__ = ()

    def __new__(cls, payload):
        return tuple.__new__(cls, (cls, payload))

    def __getnewargs__(self):
        return (self[1],)


class DefNode(_Node):
    """``v@ℓ`` — the SSA definition of ``var`` (``inst`` may be None for
    parameters and synthetic initial values)."""

    __slots__ = ()
    var = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"def({self.var!r})"


class StoreNode(_Node):
    """The stored value entering memory at a store instruction."""

    __slots__ = ()
    inst = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"store@ℓ{self.inst.label}"


class ObjNode(_Node):
    """A memory object; origin for pointed-to-by reachability."""

    __slots__ = ()
    obj = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"obj({self.obj!r})"


class NullNode(_Node):
    """A ``null`` constant occurrence at an instruction."""

    __slots__ = ()
    inst = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"null@ℓ{self.inst.label}"


VFGNode = object  # union of the four node classes


class VFGEdge(NamedTuple):
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
        #: node -> (canonical node, out-edges, in-edges), in first-seen
        #: node order.  Edges and dedup keys hold the canonical node, so
        #: the graph keeps one node object per node however many equal
        #: copies its callers pass in.
        self._nodes: Dict[VFGNode, Tuple[VFGNode, List[VFGEdge], List[VFGEdge]]] = {}
        self._edge_keys: set = set()
        #: edges added so far; an edge's *ordinal* is the value this had
        #: when it was added, so per-node out/in lists are ordinal-sorted
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
        # A node new to the graph makes the edge new too, so registering
        # it before the duplicate check never leaves an edgeless node.
        nodes = self._nodes
        s = nodes.get(src)
        if s is None:
            s = nodes[src] = (src, [], [])
        d = nodes.get(dst)
        if d is None:
            d = nodes[dst] = (dst, [], [])
        src = s[0]
        dst = d[0]
        # Most edges set only src, dst and kind, and a 3-tuple never
        # equals an 8-tuple, so the short key cannot collide with a long
        # one.  Instructions hash by identity (``eq=False``), so they key
        # an edge as they are.  One hash of the key: ``add`` and a size
        # check, not ``in`` + ``add``.
        keys = self._edge_keys
        seen = len(keys)
        if (
            callsite is None
            and obj is None
            and store is None
            and load is None
            and not interthread
        ):
            keys.add((src, dst, kind))
        else:
            keys.add((src, dst, kind, callsite, obj, store, load, interthread))
        if len(keys) == seen:
            return None
        edge = tuple.__new__(
            VFGEdge, (src, dst, guard, kind, callsite, obj, store, load, interthread)
        )
        s[1].append(edge)
        d[2].append(edge)
        self.num_edges += 1
        return edge

    # ----- queries -----------------------------------------------------------

    def out_edges(self, node: VFGNode) -> List[VFGEdge]:
        entry = self._nodes.get(node)
        return entry[1] if entry is not None else []

    def in_edges(self, node: VFGNode) -> List[VFGEdge]:
        entry = self._nodes.get(node)
        return entry[2] if entry is not None else []

    def nodes(self) -> Iterator[VFGNode]:
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[VFGEdge]:
        for _node, out, _in in self._nodes.values():
            yield from out

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

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
