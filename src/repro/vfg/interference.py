"""Alg. 2 — interference-dependence analysis.

Starting from the intra-thread VFG of Alg. 1, this stage:

1. runs the *escape analysis* (Alg. 2 lines 12-23): the escaped set is
   seeded with objects passed at fork sites (plus globals, which every
   thread can reach) and closed under "an object stored into an escaped
   object escapes";
2. computes each escaped object's *pointed-to-by* set ``Pted(o)`` — the
   variables reachable from the object's node in the VFG — together with
   the aggregated guards of the traversed edges (line 21);
3. pairs stores and loads whose pointers share an escaped object: pairs
   in different threads that may happen in parallel become *interference
   edges* (``Φ_alias`` guard, Eq. 1); ordered same-thread pairs missed by
   the intra-procedural pass become additional data-dependence edges
   (the line-9 update);
4. iterates — new edges extend reachability, which may enlarge both the
   escaped set and the Pted sets (the cyclic dependence the paper
   describes) — until no more edges are introduced.  Each round
   re-walks and re-pairs only the objects whose Pted the previous
   round's edges can change (semi-naive evaluation).

The load-store order part of the guard (``Φ_ls``, Eq. 2) is generated
lazily at the bug-checking stage (:mod:`repro.detection.realizability`)
where the set ``S(l)`` is final; the edge records the (store, load,
object) triple it needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import ForkInst, LoadInst, StoreInst
from ..ir.values import MemObject, Value, Variable
from ..smt.terms import FALSE, TRUE, BoolTerm, and_, or_
from ..smt.simplify import quick_unsat
from ..threads.mhp import MhpAnalysis
from .dataflow import DataDependenceAnalysis
from .graph import DefNode, ObjNode, StoreNode, ValueFlowGraph, VFGNode
from .summaries import site_index

__all__ = ["InterferenceAnalysis"]

#: widening threshold: after this many guard refinements of one node the
#: aggregated guard is widened to TRUE (sound for edge discovery)
_GUARD_UPDATE_CAP = 4


class InterferenceAnalysis:
    """Runs Alg. 2, mutating the VFG produced by Alg. 1 in place."""

    def __init__(
        self,
        dataflow: DataDependenceAnalysis,
        mhp: MhpAnalysis,
        max_rounds: int = 20,
        use_mhp: bool = True,
        prune_guards: bool = True,
        summary_index=None,
        metrics=None,
    ) -> None:
        self.use_mhp = use_mhp
        self.prune_guards = prune_guards
        self.dataflow = dataflow
        self.module = dataflow.module
        self.tcg = dataflow.tcg
        self.vfg: ValueFlowGraph = dataflow.vfg
        self.mhp = mhp
        self.max_rounds = max_rounds
        self.metrics = metrics
        #: pointer variable -> ascending positions into ``all_stores`` /
        #: ``all_loads``: the candidate sites of a pointer set, in global
        #: site order, without scanning every site.  The summaries pass
        #: builds them; if it failed, the same indexes are built here.
        if summary_index is not None:
            self._ptr_stores = summary_index.ptr_stores
            self._ptr_loads = summary_index.ptr_loads
        else:
            self._ptr_stores = site_index(dataflow.all_stores)
            self._ptr_loads = site_index(dataflow.all_loads)
        self.escaped: Set[MemObject] = set()
        #: escaped object -> {node: aggregated guard}
        self.pted: Dict[MemObject, Dict[VFGNode, BoolTerm]] = {}
        #: escaped object -> [(store, alias guard)] — the S(l) index for Φ_ls
        self.object_stores: Dict[MemObject, List[Tuple[StoreInst, BoolTerm]]] = {}
        self.interference_edge_count = 0
        self.rounds = 0
        #: guard-widening events (aggregated guard forced to TRUE at
        #: the _GUARD_UPDATE_CAP refinement)
        self.widenings = 0
        #: all line-9/interference edges added by this analysis
        self.edges_added = 0
        #: True when ``max_rounds`` stopped the fixpoint while its last
        #: round was still adding edges
        self.truncated = False
        #: escaped object -> widenings its last Pted walk counted
        self._widened: Dict[MemObject, int] = {}
        self._points_back_cache: Dict[Variable, Set[MemObject]] = {}

    # ----- public -----------------------------------------------------------

    def run(self) -> ValueFlowGraph:
        """Semi-naive rounds: a round re-walks and re-pairs only the
        objects the previous round's new edges can affect; every other
        object's Pted and pairs are what a full recomputation would find
        again."""
        self._seed_escaped()
        changed: Set[VFGNode] = set()
        for _ in range(self.max_rounds):
            self.rounds += 1
            walked = self._compute_pted(changed)
            self._close_escaped()
            # Newly escaped objects need Pted too; the VFG is unchanged
            # since the first call, so nothing else needs a walk.
            walked |= self._compute_pted(())
            changed = self._add_interference_edges(walked)
            if not changed:
                break
            self._points_back_cache.clear()
        self.truncated = bool(changed)
        self._index_object_stores()
        self._publish_metrics()
        return self.vfg

    def _publish_metrics(self) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter("interference.rounds").add(self.rounds)
        metrics.counter("interference.widenings").add(self.widenings)
        metrics.counter("interference.edges_added").add(self.edges_added)
        metrics.counter("interference.interference_edges").add(
            self.interference_edge_count
        )
        metrics.gauge("interference.escaped_objects").set(len(self.escaped))
        if self.truncated:
            metrics.counter("interference.truncated").add(1)

    # ----- escape analysis (lines 12-23) -------------------------------------

    def _seed_escaped(self) -> None:
        self.escaped.update(self.module.globals.values())
        self.escaped.update(self.dataflow.fork_escaped)
        # Fork arguments whose pts was unresolved at Alg. 1 time: recover
        # the objects by backward reachability from the argument value.
        for func in self.module.functions.values():
            for inst in func.body:
                if isinstance(inst, ForkInst):
                    for arg in inst.args:
                        if isinstance(arg, Variable):
                            self.escaped.update(self._objects_pointed_by(arg))

    def _close_escaped(self) -> None:
        """Close under: storing a pointer to o' into an escaped object
        makes o' escape (Alg. 2 lines 14-18)."""
        changed = True
        while changed:
            changed = False
            escaping_ptrs = self._pointer_vars_of_escaped()
            for store in self._stores_through(escaping_ptrs):
                if not isinstance(store.value, Variable):
                    continue
                for obj in self._objects_pointed_by(store.value):
                    if obj not in self.escaped:
                        self.escaped.add(obj)
                        changed = True

    def _stores_through(self, ptrs: Set[Variable]) -> Iterable[StoreInst]:
        """Stores whose pointer is one of ``ptrs``, in global site order."""
        positions: List[int] = []
        for var in ptrs:
            positions.extend(self._ptr_stores.get(var, ()))
        positions.sort()
        all_stores = self.dataflow.all_stores
        return [all_stores[pos] for pos in positions]

    def _pointer_vars_of_escaped(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for obj in self.escaped:
            for node in self.pted.get(obj, ()):
                if isinstance(node, DefNode):
                    out.add(node.var)
        return out

    def points_to_objects(self, var: Variable) -> Set[MemObject]:
        """Public query: the objects ``var`` may point to, per the VFG
        (backward reachability to object nodes).  Used by the checkers to
        resolve which memory a ``free``/dereference touches."""
        return self._objects_pointed_by(var)

    def pted_guard(self, obj: MemObject, node: VFGNode) -> Optional[BoolTerm]:
        """The aggregated pointed-to-by guard of ``node`` for ``obj``
        (None when the node is not in Pted(obj))."""
        return self.pted.get(obj, {}).get(node)

    def _objects_pointed_by(self, var: Variable) -> Set[MemObject]:
        """Objects o with ObjNode(o) → ... → def(var): the pointer targets
        of ``var`` discoverable in the current VFG (backward reachability)."""
        cached = self._points_back_cache.get(var)
        if cached is not None:
            return cached
        seen: Set[VFGNode] = set()
        out: Set[MemObject] = set()
        stack: List[VFGNode] = [DefNode(var)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if isinstance(node, ObjNode):
                out.add(node.obj)
                continue
            for edge in self.vfg.in_edges(node):
                stack.append(edge.src)
        self._points_back_cache[var] = out
        return out

    # ----- pointed-to-by sets (lines 19-23) -----------------------------------

    def _compute_pted(self, changed: Iterable[VFGNode]) -> Set[MemObject]:
        """Walk each escaped object that has no Pted yet, or whose Pted
        holds a node in ``changed`` (a source of an edge added since its
        last walk), and return the walked objects.

        A forward walk reads only the out-edges of the nodes it visits,
        and those are the Pted's nodes, so any other Pted is exactly what
        a walk of the current VFG would return.  A kept Pted re-counts
        the widenings of its last walk, as a repeated walk would.
        """
        walked: Set[MemObject] = set()
        for obj in self.escaped:
            pted = self.pted.get(obj)
            if pted is not None and pted.keys().isdisjoint(changed):
                self.widenings += self._widened[obj]
                continue
            before = self.widenings
            self.pted[obj] = self._reach_with_guards(ObjNode(obj))
            self._widened[obj] = self.widenings - before
            walked.add(obj)
        return walked

    def _reach_with_guards(self, origin: VFGNode) -> Dict[VFGNode, BoolTerm]:
        """Forward reachability from ``origin`` aggregating edge guards
        (disjunction over paths, conjunction along a path), with widening
        to TRUE after :data:`_GUARD_UPDATE_CAP` refinements per node."""
        guards: Dict[VFGNode, BoolTerm] = {origin: TRUE}
        updates: Dict[VFGNode, int] = {}
        worklist: List[VFGNode] = [origin]
        out_edges = self.vfg.out_edges
        while worklist:
            node = worklist.pop()
            node_guard = guards[node]
            for edge in out_edges(node):
                new_guard = and_(node_guard, edge.guard)
                if new_guard is FALSE:
                    continue
                old = guards.get(edge.dst)
                if old is None:
                    guards[edge.dst] = new_guard
                    worklist.append(edge.dst)
                    continue
                merged = or_(old, new_guard)
                if merged is old:
                    continue
                count = updates.get(edge.dst, 0) + 1
                updates[edge.dst] = count
                if count >= _GUARD_UPDATE_CAP:
                    self.widenings += 1
                    guards[edge.dst] = TRUE
                else:
                    guards[edge.dst] = merged
                worklist.append(edge.dst)
        guards.pop(origin, None)
        return guards

    # ----- interference edges (lines 2-10) --------------------------------------

    def _add_interference_edges(self, walked: Set[MemObject]) -> Set[VFGNode]:
        """Pair the stores and loads of every object in ``walked``; return
        the source nodes of the edges added.

        Any other object's pairs were tried in an earlier round on the
        same Pted, and :meth:`_try_edge` is pure, so they add nothing.
        """
        added = 0
        sources: Set[VFGNode] = set()
        for obj in self.escaped:
            if obj not in walked:
                continue
            pted = self.pted[obj]
            if not pted:
                continue
            stores = self._pted_sites(pted, kind="store")
            loads = self._pted_sites(pted, kind="load")
            for store, alpha in stores:
                for load, beta in loads:
                    if self._try_edge(obj, store, alpha, load, beta):
                        added += 1
                        sources.add(StoreNode(store))
        self.edges_added += added
        return sources

    def _pted_sites(self, pted: Dict[VFGNode, BoolTerm], kind: str) -> List[Tuple]:
        """``(site, alias guard)`` pairs whose pointer is in Pted, in
        global site order (the positions of the Pted pointer variables,
        sorted)."""
        if kind == "store":
            index, sites = self._ptr_stores, self.dataflow.all_stores
        else:
            index, sites = self._ptr_loads, self.dataflow.all_loads
        positions: List[int] = []
        for node in pted:
            if isinstance(node, DefNode):
                positions.extend(index.get(node.var, ()))
        positions.sort()
        return [(sites[pos], pted[DefNode(sites[pos].pointer)]) for pos in positions]

    def _try_edge(
        self,
        obj: MemObject,
        store: StoreInst,
        alpha: BoolTerm,
        load: LoadInst,
        beta: BoolTerm,
    ) -> int:
        if self.use_mhp:
            interthread = self.mhp.may_happen_in_parallel(store, load)
        else:
            # Ablation: no MHP pruning — any cross-thread pair interferes.
            ts = self.tcg.threads_of(store)
            tl = self.tcg.threads_of(load)
            interthread = any(a != b for a in ts for b in tl)
        if not interthread:
            # Same-thread pair: only a forward, compatible pair can be a
            # missed data dependence (line-9 update); a store that can
            # never precede the load is skipped statically.
            if not self.mhp.happens_before(store, load):
                return 0
        guard = and_(store.guard, load.guard, alpha, beta)
        if guard is FALSE:
            return 0
        if self.prune_guards and quick_unsat(guard):
            return 0
        edge = self.vfg.add_edge(
            StoreNode(store),
            DefNode(load.dst),
            guard,
            "load",
            obj=obj,
            store=store,
            load=load,
            interthread=interthread,
        )
        if edge is None:
            return 0
        if interthread:
            self.interference_edge_count += 1
        return 1

    # ----- Φ_ls support ------------------------------------------------------

    def _index_object_stores(self) -> None:
        """Final store index per escaped object, used by the checker to
        build the no-overwrite part of Φ_ls (the S(l) of Eq. 2)."""
        for obj in self.escaped:
            pted = self.pted.get(obj, {})
            self.object_stores[obj] = self._pted_sites(pted, kind="store")
        # Objects never escaped still need S(l) for intra-thread edges.
        for obj, targeted in self.dataflow.store_targets.items():
            if obj not in self.object_stores:
                self.object_stores[obj] = list(targeted)
