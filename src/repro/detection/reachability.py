"""Sink-directed reachability indexing for demand-driven path search.

The blind forward DFS of the original searcher (paper §5.1) only learns
that a subtree is useless after exhausting it.  Following DFI's
demand-driven value-flow indexing (PAPERS.md), this module inverts the
question: *before* the search starts, compute — once per sink class —
which VFG nodes can reach a sink at all, and with what calling-context
obligation, so ``_dfs`` refuses to enter provably useless subtrees.

Plain backward reachability would ignore the context discipline the
forward search enforces (call/return matching, unreturnable fork
edges), so the index tracks one integer per node: the minimal number of
*base-level returns* some node→sink path needs, i.e. how far below the
node's entry context depth the path must pop.

Backward transfer along an edge ``src --e--> dst`` (``k`` = need at
``dst``):

* ``direct``/``alloc``/``store``/``load`` — need ``k`` (no context op);
* ``ret``      — need ``k + 1`` (the path pops one level immediately);
* ``call``     — need ``max(k - 1, 0)`` (the push absorbs one pop);
* ``forkarg``  — admissible only when ``k == 0``: a fork marker can
  never be popped, so the suffix must stay at or above the fork depth.

Needs saturate at ``context_depth`` (storing a smaller need than the
true one is conservative: it only admits more).  Call/return *site*
matching and the context-depth cap on pushes are deliberately ignored —
both only shrink the set of admissible forward paths, so the index
over-approximates and pruning stays exact: it never cuts a subtree the
reference DFS could extract a candidate from.

At search time the test is ``min_need(node) <= avail(context)`` where
``avail`` counts the context entries above the topmost fork marker
(∞ when there is none — returns past the bottom of the stack are the
legal "unbalanced-up" exits).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from ..vfg.graph import ValueFlowGraph, VFGNode

__all__ = ["INFINITE_AVAIL", "SinkReachabilityIndex"]

#: "no fork marker on the context stack": any number of base-level
#: returns is admissible (unbalanced-up past the stack bottom is legal).
INFINITE_AVAIL = 1 << 30


class SinkReachabilityIndex:
    """Backward context-polarity reachability from a checker's sink set."""

    def __init__(
        self,
        vfg: ValueFlowGraph,
        sinks: Iterable[VFGNode],
        context_depth: int = 6,
    ) -> None:
        cap = max(1, context_depth)
        needs: Dict[VFGNode, int] = {s: 0 for s in sinks}
        self.num_sinks = len(needs)
        work = deque(needs)
        while work:
            node = work.popleft()
            k = needs[node]  # may have improved since it was queued
            for edge in vfg.in_edges(node):
                kind = edge.kind
                if kind == "ret":
                    nk = min(k + 1, cap)
                elif kind == "call":
                    nk = k - 1 if k > 0 else 0
                elif kind == "forkarg":
                    if k != 0:
                        continue
                    nk = 0
                else:
                    nk = k
                cur = needs.get(edge.src)
                if cur is None or nk < cur:
                    needs[edge.src] = nk
                    work.append(edge.src)
        self._needs = needs
        self.num_reachable = len(needs)
        self.built_at_version = getattr(vfg, "version", None)

    def min_need(self, node: VFGNode) -> Optional[int]:
        return self._needs.get(node)

    def can_enter(self, node: VFGNode, avail: int = INFINITE_AVAIL) -> bool:
        """May an admissible suffix from ``node`` (whose context allows
        ``avail`` base-level returns) still reach a sink?"""
        need = self._needs.get(node)
        return need is not None and need <= avail
