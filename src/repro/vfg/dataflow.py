"""Alg. 1 — thread-modular data-dependence analysis.

Bottom-up over the thread call graph (callees before callers), each
function gets one flow-sensitive pass over its guarded straight-line
body, computing:

* guarded points-to facts for top-level variables (the global ``PGtop``
  of the paper — SSA makes one global map sound);
* guarded memory *content* per address-taken object (the paper's
  ``IN``/``OUT`` sets), with strong updates by guard weakening: a store
  under condition φ rewrites content ``(v, g)`` to ``(v, g ∧ ¬φ)``, which
  is the path-sensitive generalization of the singleton strong update in
  Alg. 1 lines 15-18;
* intra-thread value-flow edges (paper Fig. 6), including indirect
  store→load flows through resolved objects;
* a procedural transfer function (summary) exposing points-to side
  effects through *formal pointee* objects — the paper's "auxiliary
  variables for the objects passed into the function by references"
  (Alg. 1 line 3).

Fork sites transfer only the direct argument edge; the interference
analysis (Alg. 2, :mod:`repro.vfg.interference`) resolves everything
that flows through them (Alg. 1 lines 23-24).

Every run analyses every function once, from scratch, as one
``dataflow`` pass; :attr:`DataDependenceAnalysis.function_trace` keeps
each function's share of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import (
    AddrOfInst,
    AllocInst,
    BinOpInst,
    CallInst,
    CmpInst,
    CopyInst,
    ForkInst,
    FreeInst,
    Instruction,
    LoadInst,
    PhiInst,
    SinkInst,
    StoreInst,
)
from ..ir.module import IRFunction, IRModule
from ..ir.values import (
    NULL,
    FunctionRef,
    IntConstant,
    MemObject,
    NullConstant,
    SymbolicConstant,
    Value,
    Variable,
    VariableNamer,
)
from ..smt.terms import FALSE, TRUE, BoolTerm, and_, not_, or_
from ..smt.simplify import quick_unsat
from ..threads.callgraph import ThreadCallGraph
from .graph import DefNode, NullNode, ObjNode, StoreNode, ValueFlowGraph

__all__ = [
    "DataDependenceAnalysis",
    "FunctionSummary",
    "PtsSet",
    "ContentEntry",
]

#: guard-indexed points-to set: object -> condition of pointing to it
PtsSet = Dict[MemObject, BoolTerm]


@dataclass(slots=True)
class ContentEntry:
    """One candidate value held by a memory object: the value, the
    condition under which it is the current content, and the store that
    wrote it (None for synthetic initial content)."""

    value: Value
    guard: BoolTerm
    store: Optional[StoreInst]


@dataclass(slots=True)
class FunctionSummary:
    """The procedural transfer function of Alg. 1 lines 21-22."""

    func: IRFunction
    #: formal index -> synthetic pointee object for that parameter
    formal_pointees: Dict[int, MemObject] = field(default_factory=dict)
    #: object -> synthetic variable standing for its content at entry
    initial_values: Dict[MemObject, Variable] = field(default_factory=dict)
    #: memory state at function exit (side effects, incl. unchanged parts)
    exit_content: Dict[MemObject, List[ContentEntry]] = field(default_factory=dict)

    def initial_value_vars(self) -> Dict[Variable, MemObject]:
        return {v: o for o, v in self.initial_values.items()}


class DataDependenceAnalysis:
    """Runs Alg. 1 over a module, populating a :class:`ValueFlowGraph`."""

    def __init__(
        self,
        module: IRModule,
        tcg: ThreadCallGraph,
        max_content_entries: int = 16,
        prune_guards: bool = True,
        tracer=None,
    ) -> None:
        from ..obs.tracer import NULL_TRACER

        self.module = module
        self.tcg = tcg
        #: optional repro.obs Tracer: each function analysis becomes a
        #: ``dataflow:<fn>`` span
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.vfg = ValueFlowGraph()
        self.max_content_entries = max_content_entries
        self.prune_guards = prune_guards
        #: global guarded points-to map for top-level (SSA) variables
        self.pts: Dict[Variable, PtsSet] = {}
        self.summaries: Dict[str, FunctionSummary] = {}
        #: every store, with the objects it may write and alias guards
        self.store_targets: Dict[MemObject, List[Tuple[StoreInst, BoolTerm]]] = {}
        #: all loads / stores for the interference stage
        self.all_loads: List[LoadInst] = []
        self.all_stores: List[StoreInst] = []
        #: objects passed at fork sites (seed of the escape analysis)
        self.fork_escaped: List[MemObject] = []
        self.statistics = {"strong_updates": 0, "weak_updates": 0, "edges_pruned": 0}
        #: (function name, 'run', seconds) per Alg. 1 pass
        self.function_trace: List[Tuple[str, str, float]] = []
        #: per-function ownership extents, in pass order: name ->
        #: (edge_start, edge_end, store_start, store_end, load_start,
        #: load_end, fork_escape_start, fork_escape_end).  Alg. 1 mutates
        #: the VFG, the site lists and the fork-escape seeds only inside
        #: per-function passes, so each function owns one contiguous span
        #: of edge ordinals and site positions — the basis of the
        #: per-function value-flow summaries (:mod:`repro.vfg.summaries`).
        self.function_extents: Dict[str, Tuple[int, ...]] = {}

    # ----- public ---------------------------------------------------------

    def run(self) -> ValueFlowGraph:
        """Analyze the module, one pass per function in the thread call
        graph's reverse-topological order (callees before callers).

        The ``function_trace`` rows tile the run: each row's seconds run
        from the end of the previous row (the first from the start of the
        run, so it carries the ordering), and the rows sum to the pass."""
        t0 = time.perf_counter()
        for name in self.tcg.reverse_topological_functions():
            func = self.module.functions.get(name)
            if func is None:
                continue
            marks = (
                self.vfg.num_edges,
                len(self.all_stores),
                len(self.all_loads),
                len(self.fork_escaped),
            )
            with self.tracer.span(f"dataflow:{name}"):
                self._analyze_function(func)
            self.function_extents[name] = (
                marks[0],
                self.vfg.num_edges,
                marks[1],
                len(self.all_stores),
                marks[2],
                len(self.all_loads),
                marks[3],
                len(self.fork_escaped),
            )
            now = time.perf_counter()
            self.function_trace.append((name, "run", now - t0))
            t0 = now
        return self.vfg

    def _bump(self, key: str) -> None:
        self.statistics[key] += 1

    def pts_of(self, value: Value) -> PtsSet:
        if isinstance(value, Variable):
            return self.pts.get(value, {})
        return {}

    # ----- per-function analysis -------------------------------------------

    def _analyze_function(self, func: IRFunction) -> None:
        summary = FunctionSummary(func=func)
        self.summaries[func.name] = summary
        content: Dict[MemObject, List[ContentEntry]] = {}
        # Synthetic initial-value names are scoped to this function, so
        # they are identical in every process analyzing the same source.
        self._namer = VariableNamer(f"in::{func.name}")

        # Formal pointees: each pointer parameter may reference memory the
        # caller owns; model it with one synthetic object whose initial
        # content is a synthetic variable (bound to caller values at call
        # sites).  This is the auxiliary-variable transformation.
        for i, param in enumerate(func.params):
            pointee = MemObject(f"{func.name}.arg{i}", "formal")
            summary.formal_pointees[i] = pointee
            self._pts_add(param, pointee, TRUE)
            self.vfg.add_edge(ObjNode(pointee), DefNode(param), TRUE, "alloc")
            init = self._namer.fresh(f"arg{i}")
            summary.initial_values[pointee] = init
            content[pointee] = [ContentEntry(init, TRUE, None)]

        for inst in func.body:
            self._transfer(inst, func, summary, content)

        summary.exit_content = content

    def _initial_content(
        self,
        obj: MemObject,
        summary: FunctionSummary,
        content: Dict[MemObject, List[ContentEntry]],
    ) -> List[ContentEntry]:
        """Content list for an object first touched in this function."""
        entries = content.get(obj)
        if entries is None:
            init = self._namer.fresh(obj.name)
            summary.initial_values[obj] = init
            entries = [ContentEntry(init, TRUE, None)]
            content[obj] = entries
        return entries

    # ----- transfer functions ---------------------------------------------

    def _transfer(
        self,
        inst: Instruction,
        func: IRFunction,
        summary: FunctionSummary,
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        if isinstance(inst, (AllocInst, AddrOfInst)):
            self._pts_add(inst.dst, inst.obj, inst.guard)
            self.vfg.add_edge(ObjNode(inst.obj), DefNode(inst.dst), inst.guard, "alloc")
            if isinstance(inst, AllocInst):
                # Fresh heap cell: content starts empty (uninitialized),
                # so no initial synthetic value is needed.
                content.setdefault(inst.obj, [])
        elif isinstance(inst, CopyInst):
            self._flow_value(inst.src, DefNode(inst.dst), inst.guard, inst)
            self._pts_merge_from(inst.dst, inst.src, inst.guard)
        elif isinstance(inst, PhiInst):
            for value, sel in inst.incomings:
                guard = and_(inst.guard, sel)
                self._flow_value(value, DefNode(inst.dst), guard, inst)
                self._pts_merge_from(inst.dst, value, guard)
        elif isinstance(inst, (BinOpInst, CmpInst)):
            for operand in (inst.lhs, inst.rhs):
                if isinstance(operand, Variable):
                    self.vfg.add_edge(
                        DefNode(operand), DefNode(inst.dst), inst.guard, "direct"
                    )
        elif isinstance(inst, LoadInst):
            self._transfer_load(inst, summary, content)
        elif isinstance(inst, StoreInst):
            self._transfer_store(inst, summary, content)
        elif isinstance(inst, CallInst):
            self._transfer_call(inst, summary, content)
        elif isinstance(inst, ForkInst):
            self._transfer_fork(inst)
        # Free/Sink/Source/Return/Join/Lock/Unlock: no value-flow effects here.

    def _transfer_load(
        self,
        inst: LoadInst,
        summary: FunctionSummary,
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        self.all_loads.append(inst)
        for obj, alias_guard in self.pts_of(inst.pointer).items():
            entries = (
                self._initial_content(obj, summary, content)
                if obj.kind in ("formal", "global")
                else content.setdefault(obj, [])
            )
            for entry in entries:
                guard = and_(inst.guard, alias_guard, entry.guard)
                if self._pruned(guard):
                    continue
                if entry.store is not None:
                    self.vfg.add_edge(
                        StoreNode(entry.store),
                        DefNode(inst.dst),
                        guard,
                        "load",
                        obj=obj,
                        store=entry.store,
                        load=inst,
                    )
                else:
                    self._flow_value(entry.value, DefNode(inst.dst), guard, inst)
                self._pts_merge_from(inst.dst, entry.value, guard)

    def _transfer_store(
        self,
        inst: StoreInst,
        summary: FunctionSummary,
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        self.all_stores.append(inst)
        self._flow_value(inst.value, StoreNode(inst), inst.guard, inst)
        for obj, alias_guard in self.pts_of(inst.pointer).items():
            if obj.kind in ("formal", "global"):
                self._initial_content(obj, summary, content)
            written = and_(inst.guard, alias_guard)
            if self._pruned(written):
                continue
            self.store_targets.setdefault(obj, []).append((inst, alias_guard))
            entries = content.setdefault(obj, [])
            if len(entries) < self.max_content_entries:
                # Path-sensitive strong update: survivors keep g ∧ ¬written.
                survivors = []
                for entry in entries:
                    weakened = and_(entry.guard, not_(written))
                    if not self._pruned(weakened):
                        survivors.append(
                            ContentEntry(entry.value, weakened, entry.store)
                        )
                self._bump("strong_updates")
                entries[:] = survivors
            else:
                self._bump("weak_updates")
            entries.append(ContentEntry(inst.value, written, inst))

    def _transfer_call(
        self,
        inst: CallInst,
        summary: FunctionSummary,
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        for callee_name in sorted(self.tcg.callees_at(inst)):
            callee = self.module.functions.get(callee_name)
            callee_summary = self.summaries.get(callee_name)
            if callee is None or callee_summary is None:
                continue  # recursion cut or unknown: no effects (soundy)
            binding = self._bind_formals(inst, callee, callee_summary)
            self._apply_initial_reads(inst, callee_summary, binding, content)
            self._apply_side_effects(inst, callee_summary, binding, content)
            self._apply_returns(inst, callee, binding)

    def _bind_formals(
        self, inst: CallInst, callee: IRFunction, callee_summary: FunctionSummary
    ) -> Dict[MemObject, PtsSet]:
        """Bind formal pointees to the actuals' objects; add call edges."""
        binding: Dict[MemObject, PtsSet] = {}
        for i, (formal, actual) in enumerate(zip(callee.params, inst.args)):
            self._flow_value(actual, DefNode(formal), inst.guard, inst, kind="call", callsite=inst.label)
            pointee = callee_summary.formal_pointees.get(i)
            if pointee is not None:
                binding[pointee] = dict(self.pts_of(actual))
        return binding

    def _apply_initial_reads(
        self,
        inst: CallInst,
        callee_summary: FunctionSummary,
        binding: Dict[MemObject, PtsSet],
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        """Feed caller memory into the callee's synthetic initial values."""
        for obj, init_var in callee_summary.initial_values.items():
            targets = binding.get(obj, {obj: TRUE} if obj.kind != "formal" else {})
            for caller_obj, alias_guard in targets.items():
                for entry in content.get(caller_obj, []):
                    guard = and_(inst.guard, alias_guard, entry.guard)
                    if self._pruned(guard):
                        continue
                    src = (
                        StoreNode(entry.store)
                        if entry.store is not None
                        else self._value_node(entry.value, inst)
                    )
                    if src is not None:
                        self.vfg.add_edge(
                            src,
                            DefNode(init_var),
                            guard,
                            "call",
                            callsite=inst.label,
                        )
                    self._pts_merge_from(init_var, entry.value, guard)

    def _apply_side_effects(
        self,
        inst: CallInst,
        callee_summary: FunctionSummary,
        binding: Dict[MemObject, PtsSet],
        content: Dict[MemObject, List[ContentEntry]],
    ) -> None:
        """Merge the callee's exit memory into the caller's state."""
        init_vars = callee_summary.initial_value_vars()
        for obj, exit_entries in callee_summary.exit_content.items():
            if not exit_entries:
                continue
            changed = [e for e in exit_entries if not (
                isinstance(e.value, Variable) and e.value in init_vars
            )]
            if not changed:
                continue  # callee only read: caller state unchanged
            targets = binding.get(obj, {obj: TRUE} if obj.kind != "formal" else {})
            for caller_obj, alias_guard in targets.items():
                entries = content.setdefault(caller_obj, [])
                for e in changed:
                    guard = and_(inst.guard, alias_guard, e.guard)
                    if self._pruned(guard):
                        continue
                    entries.append(ContentEntry(e.value, guard, e.store))
                    if e.store is not None:
                        self.store_targets.setdefault(caller_obj, []).append((e.store, guard))
                    self._pts_translate_into(caller_obj, e.value, guard, binding)
                del entries[: max(0, len(entries) - self.max_content_entries)]

    def _apply_returns(
        self, inst: CallInst, callee: IRFunction, binding: Dict[MemObject, PtsSet]
    ) -> None:
        if inst.dst is None:
            return
        for value, ret_guard in callee.returns:
            guard = and_(inst.guard, ret_guard)
            if self._pruned(guard):
                continue
            self._flow_value(value, DefNode(inst.dst), guard, inst, kind="ret", callsite=inst.label)
            for obj, g in self._translated_pts(value, binding).items():
                self._pts_add(inst.dst, obj, and_(guard, g))

    def _transfer_fork(self, inst: ForkInst) -> None:
        """Fork: only the direct argument edge (Alg. 1 lines 23-24); the
        escaped objects seed the interference analysis."""
        for callee_name in sorted(self.tcg.callees_at(inst)):
            callee = self.module.functions.get(callee_name)
            if callee is None:
                continue
            for formal, actual in zip(callee.params, inst.args):
                self._flow_value(
                    actual, DefNode(formal), inst.guard, inst, kind="forkarg", callsite=inst.label
                )
                for obj in self.pts_of(actual):
                    self.fork_escaped.append(obj)

    # ----- helpers -----------------------------------------------------------

    def _value_node(self, value: Value, at: Instruction):
        if isinstance(value, Variable):
            return DefNode(value)
        if isinstance(value, NullConstant):
            return NullNode(at)
        return None

    def _flow_value(
        self,
        value: Value,
        dst_node,
        guard: BoolTerm,
        at: Instruction,
        kind: str = "direct",
        callsite: Optional[int] = None,
    ) -> None:
        src = self._value_node(value, at)
        if src is None:
            return
        if self._pruned(guard):
            return
        self.vfg.add_edge(src, dst_node, guard, kind, callsite=callsite)

    def _pts_add(self, var: Variable, obj: MemObject, guard: BoolTerm) -> None:
        if guard is FALSE:
            return
        pset = self.pts.setdefault(var, {})
        existing = pset.get(obj)
        pset[obj] = or_(existing, guard) if existing is not None else guard

    def _pts_merge_from(self, dst: Variable, src: Value, guard: BoolTerm) -> None:
        for obj, g in self.pts_of(src).items():
            self._pts_add(dst, obj, and_(guard, g))

    def _translated_pts(
        self, value: Value, binding: Dict[MemObject, PtsSet]
    ) -> PtsSet:
        """The pts of a callee value with formal pointees mapped to the
        caller objects bound at this call site."""
        out: PtsSet = {}
        for obj, g in self.pts_of(value).items():
            if obj.kind == "formal" and obj in binding:
                for caller_obj, bg in binding[obj].items():
                    prev = out.get(caller_obj)
                    combined = and_(g, bg)
                    out[caller_obj] = or_(prev, combined) if prev is not None else combined
            else:
                prev = out.get(obj)
                out[obj] = or_(prev, g) if prev is not None else g
        return out

    def _pts_translate_into(
        self,
        _caller_obj: MemObject,
        value: Value,
        guard: BoolTerm,
        binding: Dict[MemObject, PtsSet],
    ) -> None:
        """After merging a callee store into caller memory, make sure the
        stored value's pts is visible in caller terms (formal-pointee
        translation) — loads in the caller use pts of the stored value."""
        if not isinstance(value, Variable):
            return
        for obj, g in self._translated_pts(value, binding).items():
            self._pts_add(value, obj, and_(guard, g))

    def _pruned(self, guard: BoolTerm) -> bool:
        if guard is TRUE:
            return False
        if guard is FALSE:
            self._bump("edges_pruned")
            return True
        if self.prune_guards and quick_unsat(guard):
            self._bump("edges_pruned")
            return True
        return False
