"""Thread call graph construction (paper §4.1 / §6).

A *thread* corresponds to a fork site (plus the implicit main thread);
its call graph is the set of functions reachable from the thread's entry
function.  Fork and call targets through function pointers are resolved
with Steensgaard's analysis (paper §6), so the graph can be built before
any expensive pointer reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import CallInst, ForkInst, Instruction
from ..ir.module import IRModule
from ..ir.values import FunctionRef, Variable
from ..pointer.steensgaard import SteensgaardResult, steensgaard

__all__ = ["Thread", "ThreadCallGraph", "build_thread_call_graph", "MAIN_THREAD"]

MAIN_THREAD = "main"

_NO_THREADS: FrozenSet[str] = frozenset()


@dataclass(eq=False)
class Thread:
    """One thread of the bounded program.

    ``tid`` is ``main`` or ``t@<fork label>``; ``fork`` is the creating
    instruction (None for main); ``parent`` the creating thread's tid.
    ``functions`` is the set of function names the thread may execute.
    """

    tid: str
    entry: str
    fork: Optional[ForkInst] = None
    parent: Optional[str] = None
    name_in_source: Optional[str] = None
    functions: Set[str] = field(default_factory=set)

    def __repr__(self) -> str:
        return f"<Thread {self.tid} entry={self.entry}>"


class ThreadCallGraph:
    """Threads, their function sets, and call edges of the whole program."""

    def __init__(self, module: IRModule, pointsto: SteensgaardResult) -> None:
        self.module = module
        self.pointsto = pointsto
        self.threads: Dict[str, Thread] = {}
        # function -> tids that may execute it (sets while the graph is
        # built, frozen once it is complete)
        self.threads_of_function: Dict[str, FrozenSet[str]] = {}
        # caller function -> set of (callsite label, callee function)
        self.call_edges: Dict[str, Set[Tuple[int, str]]] = {}

    # ----- queries ---------------------------------------------------------

    def thread(self, tid: str) -> Thread:
        return self.threads[tid]

    def tids(self) -> List[str]:
        return list(self.threads)

    def threads_of(self, inst: Instruction) -> FrozenSet[str]:
        """The threads that may execute ``inst`` (the stored set itself)."""
        return self.threads_of_function.get(self.module.function_of(inst), _NO_THREADS)

    def callees_at(self, inst: Instruction) -> FrozenSet[str]:
        """Possible callee functions at a call or fork instruction."""
        names = self.pointsto.callees(inst.callee)
        return frozenset(n for n in names if n in self.module.functions)

    def ancestors(self, tid: str) -> List[str]:
        """Chain of parent tids from ``tid`` (exclusive) up to main."""
        out = []
        cur = self.threads[tid].parent
        while cur is not None:
            out.append(cur)
            cur = self.threads[cur].parent
        return out

    def reverse_topological_functions(self) -> List[str]:
        """Functions ordered callees-first (cycles broken arbitrarily) —
        the bottom-up order of the paper's Alg. 1."""
        visited: Set[str] = set()
        order: List[str] = []
        for name in self.module.functions:
            self._visit(name, set(), visited, order)
        return order

    def _visit(
        self, name: str, stack: Set[str], visited: Set[str], order: List[str]
    ) -> None:
        # A method, not a nested closure: a recursive closure refers to
        # itself through its cell and leaves a cycle behind every call.
        if name in visited or name in stack:
            return
        stack.add(name)
        for _label, callee in sorted(self.call_edges.get(name, ())):
            self._visit(callee, stack, visited, order)
        stack.discard(name)
        visited.add(name)
        order.append(name)


def build_thread_call_graph(
    module: IRModule, pointsto: Optional[SteensgaardResult] = None
) -> ThreadCallGraph:
    """Discover threads (fork sites) and per-thread function sets.

    Newly discovered fork sites inside forked code spawn further threads,
    so the construction iterates worklist-style until closure.  Loop
    unrolling happened before lowering, so the number of fork sites — and
    hence threads — is finite (paper §3.1).
    """
    if pointsto is None:
        pointsto = steensgaard(module)
    graph = ThreadCallGraph(module, pointsto)

    main = Thread(tid=MAIN_THREAD, entry=module.entry)
    graph.threads[MAIN_THREAD] = main

    worklist: List[Thread] = [main]
    while worklist:
        thread = worklist.pop()
        reachable = _reachable_functions(graph, thread.entry)
        thread.functions = reachable
        for func_name in reachable:
            graph.threads_of_function.setdefault(func_name, set()).add(thread.tid)
        for func_name in reachable:
            func = module.functions.get(func_name)
            if func is None:
                continue
            for inst in func.body:
                if isinstance(inst, ForkInst):
                    callees = sorted(graph.callees_at(inst))
                    for callee in callees:
                        # One thread per (fork site, resolved target).
                        tid = (
                            f"t@{inst.label}"
                            if len(callees) == 1
                            else f"t@{inst.label}:{callee}"
                        )
                        if tid in graph.threads:
                            continue
                        child = Thread(
                            tid=tid,
                            entry=callee,
                            fork=inst,
                            parent=thread.tid,
                            name_in_source=inst.thread,
                        )
                        graph.threads[tid] = child
                        worklist.append(child)
    graph.threads_of_function = {
        func: frozenset(tids) for func, tids in graph.threads_of_function.items()
    }
    return graph


def _reachable_functions(graph: ThreadCallGraph, entry: str) -> Set[str]:
    module = graph.module
    seen: Set[str] = set()
    stack = [entry]
    while stack:
        name = stack.pop()
        if name in seen or name not in module.functions:
            continue
        seen.add(name)
        for inst in module.functions[name].body:
            if isinstance(inst, CallInst):
                for callee in graph.callees_at(inst):
                    graph.call_edges.setdefault(name, set()).add((inst.label, callee))
                    if callee not in seen:
                        stack.append(callee)
    return seen
