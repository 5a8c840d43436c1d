"""May-happen-in-parallel (MHP) analysis and structural happens-before.

The paper (§6) uses an MHP analysis to prune load/store pairs that can
never interfere before running Alg. 2, and (§5.1) derives the
inter-thread part of the program order ``<P`` from fork/join semantics:

* everything in a child thread happens after the fork that created it;
* everything in a child thread happens before any statement following a
  matching join in an ancestor.

``lock``/``unlock`` are deliberately *not* used to refine MHP, matching
the paper ("the partial order constraints do not attempt to identify all
the program orders enforced by other synchronization semantics"); the
hooks are in place for the future-work extension.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.instructions import Instruction, JoinInst
from .callgraph import ThreadCallGraph

__all__ = ["MhpAnalysis"]


class MhpAnalysis:
    """Structural happens-before and MHP queries over a thread call graph.

    Everything a query needs is indexed once per run: each thread's fork
    chain (as ancestor -> fork site) and, per joined thread, the first
    join label in each function that joins it.
    """

    def __init__(self, graph: ThreadCallGraph) -> None:
        self.graph = graph
        self.module = graph.module
        # tid -> {ancestor tid: (function of the fork on the chain from
        # the ancestor, fork label)}, from tid's own fork up to main
        self._forked_under: Dict[str, Dict[str, Tuple[str, int]]] = {}
        # tid -> {function: lowest label of a join of tid in it}
        self._joined_in: Dict[str, Dict[str, int]] = {}
        self._index()

    def _index(self) -> None:
        function_of = self.module.function_of
        threads = self.graph.threads
        # (forking function, source name) -> [(fork label, tid)]
        forked_here: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
        for tid, thread in threads.items():
            if thread.fork is not None:
                key = (function_of(thread.fork), thread.name_in_source)
                forked_here.setdefault(key, []).append((thread.fork.label, tid))
            chain: Dict[str, Tuple[str, int]] = {}
            while thread.fork is not None and thread.parent is not None:
                chain[thread.parent] = (function_of(thread.fork), thread.fork.label)
                thread = threads[thread.parent]
            self._forked_under[tid] = chain
        # A join(t) joins the threads that its own function forked under
        # the source name t at an earlier label, and no others: a handle
        # named t in another function is a different variable.
        for func_name, func in self.module.functions.items():
            for inst in func.body:
                if isinstance(inst, JoinInst):
                    for fork_label, tid in forked_here.get((func_name, inst.thread), ()):
                        if fork_label < inst.label:
                            joined = self._joined_in.setdefault(tid, {})
                            first = joined.get(func_name)
                            if first is None or inst.label < first:
                                joined[func_name] = inst.label

    # ----- happens-before -------------------------------------------------

    def happens_before(self, a: Instruction, b: Instruction) -> bool:
        """True when ``a`` structurally happens before ``b`` under *every*
        thread assignment (sound for use as a pruning relation)."""
        func_a = self.module.function_of(a)
        func_b = self.module.function_of(b)
        threads_a = self.graph.threads_of_function.get(func_a)
        threads_b = self.graph.threads_of_function.get(func_b)
        if not threads_a or not threads_b:
            return False
        hb = self._hb_under
        for ta in threads_a:
            for tb in threads_b:
                if not hb(func_a, a.label, ta, func_b, b.label, tb):
                    return False
        return True

    def _hb_under(
        self, func_a: str, label_a: int, ta: str, func_b: str, label_b: int, tb: str
    ) -> bool:
        """Does statement ``label_a`` of ``func_a`` run in thread ``ta``
        before statement ``label_b`` of ``func_b`` runs in thread ``tb``?"""
        if ta == tb:
            # Cross-function same-thread order is unresolved here.
            return func_a == func_b and label_a < label_b
        # a's thread is an ancestor of b's: a hb b iff a precedes the fork
        # (in the fork's function) on the ancestry chain.
        fork_site = self._forked_under[tb].get(ta)
        if fork_site is not None:
            return func_a == fork_site[0] and label_a <= fork_site[1]
        # b's thread joined a's thread: a hb b iff a join of ta precedes b
        # in b's function and b's thread can execute that join.
        join_label = self._joined_in.get(ta, _NO_JOINS).get(func_b)
        return (
            join_label is not None
            and join_label < label_b
            and tb in self.graph.threads_of_function[func_b]
        )

    # ----- MHP --------------------------------------------------------------

    def may_happen_in_parallel(self, a: Instruction, b: Instruction) -> bool:
        """True when some thread assignment runs ``a`` and ``b`` in
        different threads with neither ordered before the other."""
        func_a = self.module.function_of(a)
        func_b = self.module.function_of(b)
        threads_a = self.graph.threads_of_function.get(func_a, ())
        threads_b = self.graph.threads_of_function.get(func_b, ())
        hb = self._hb_under
        for ta in threads_a:
            for tb in threads_b:
                if ta == tb:
                    continue
                if not hb(func_a, a.label, ta, func_b, b.label, tb) and not hb(
                    func_b, b.label, tb, func_a, a.label, ta
                ):
                    return True
        return False


_NO_JOINS: Dict[str, int] = {}
