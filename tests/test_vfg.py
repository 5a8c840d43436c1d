"""Tests for VFG construction: Alg. 1 data dependence, Alg. 2 interference."""

import pytest

from repro import AnalysisConfig, Canary
from repro.ir import FreeInst, LoadInst, StoreInst
from repro.smt.terms import TRUE
from repro.vfg import DefNode, ObjNode, StoreNode

from programs import (
    FIG2_BUGGY,
    FIG2_BUG_FREE,
    JOIN_PROTECTED,
    SIMPLE_UAF,
    THROUGH_CALL,
    bundle_for,
)


def find(module, func, cls, nth=0):
    return [i for i in module.functions[func].body if isinstance(i, cls)][nth]


class TestDataDependence:
    def test_alloc_edge(self):
        bundle = bundle_for("void main() { int* p = malloc(); }")
        alloc = bundle.module.functions["main"].body[0]
        edges = bundle.vfg.out_edges(ObjNode(alloc.obj))
        assert any(e.dst == DefNode(alloc.dst) and e.kind == "alloc" for e in edges)

    def test_copy_edge(self):
        bundle = bundle_for("void main() { int* p = malloc(); int* q = p; }")
        body = bundle.module.functions["main"].body
        p, q = body[0].dst, body[2].dst  # alloc, copy(p), copy(q)... q is body[2]
        # find the direct edge p-def to q-def through the copies
        reachable = _forward_vars(bundle, p)
        assert q in reachable

    def test_intra_store_load_edge(self):
        bundle = bundle_for(
            "void main() { int** x = malloc(); int* a = malloc(); *x = a; int* c = *x; }"
        )
        store = find(bundle.module, "main", StoreInst)
        load = find(bundle.module, "main", LoadInst)
        edges = bundle.vfg.out_edges(StoreNode(store))
        assert any(
            e.dst == DefNode(load.dst) and e.kind == "load" and not e.interthread
            for e in edges
        )

    def test_strong_update_kills_old_value(self):
        bundle = bundle_for(
            """
            void main() {
                int** x = malloc();
                int* a = malloc();
                int* b = malloc();
                *x = a;
                *x = b;
                int* c = *x;
                print(*c);
            }
            """
        )
        store_a = find(bundle.module, "main", StoreInst, 0)
        store_b = find(bundle.module, "main", StoreInst, 1)
        load = find(bundle.module, "main", LoadInst, 0)
        edges_a = [
            e for e in bundle.vfg.out_edges(StoreNode(store_a)) if e.load is load
        ]
        edges_b = [
            e for e in bundle.vfg.out_edges(StoreNode(store_b)) if e.load is load
        ]
        assert not edges_a  # killed by the unconditional second store
        assert edges_b

    def test_conditional_store_keeps_both(self):
        bundle = bundle_for(
            """
            extern int c;
            void main() {
                int** x = malloc();
                int* a = malloc();
                int* b = malloc();
                *x = a;
                if (c) { *x = b; }
                int* v = *x;
            }
            """
        )
        store_a = find(bundle.module, "main", StoreInst, 0)
        store_b = find(bundle.module, "main", StoreInst, 1)
        load = find(bundle.module, "main", LoadInst, 0)
        edges_a = [e for e in bundle.vfg.out_edges(StoreNode(store_a)) if e.load is load]
        edges_b = [e for e in bundle.vfg.out_edges(StoreNode(store_b)) if e.load is load]
        assert edges_a and edges_b
        # The surviving old-value edge carries the negated branch condition.
        assert edges_a[0].guard is not TRUE

    def test_summary_store_via_callee(self):
        bundle = bundle_for(THROUGH_CALL)
        put_store = find(bundle.module, "put", StoreInst)
        get_load = find(bundle.module, "get", LoadInst)
        # The flow goes store@put -> (call edge at the get() call site) ->
        # get's initial-value variable -> the load's destination.
        reached = _forward_nodes(bundle, StoreNode(put_store))
        assert DefNode(get_load.dst) in reached, (
            "store in put() must reach load in get() through main's memory"
        )


class TestInterference:
    def test_fig2_has_escaped_objects(self):
        bundle = bundle_for(FIG2_BUG_FREE)
        names = {o.name for o in bundle.interference.escaped}
        assert len(names) >= 3  # o(x), o(a), o(b) all escape

    def test_fig2_contradictory_edge_pruned(self):
        bundle = bundle_for(FIG2_BUG_FREE)
        assert bundle.interference.interference_edge_count == 0

    def test_fig2_buggy_edge_present(self):
        bundle = bundle_for(FIG2_BUGGY)
        assert bundle.interference.interference_edge_count >= 1
        edge = bundle.vfg.interference_edges()[0]
        assert isinstance(edge.store, StoreInst)
        assert isinstance(edge.load, LoadInst)

    def test_simple_uaf_interference(self):
        bundle = bundle_for(SIMPLE_UAF)
        assert bundle.interference.interference_edge_count >= 1

    def test_no_interference_without_fork(self):
        bundle = bundle_for(
            """
            void main() {
                int** x = malloc();
                int* a = malloc();
                *x = a;
                int* c = *x;
                print(*c);
            }
            """
        )
        assert bundle.interference.interference_edge_count == 0
        assert not bundle.interference.escaped or all(
            o.kind != "global" for o in bundle.interference.escaped
        )

    def test_global_escapes(self):
        bundle = bundle_for(
            """
            int* g;
            void main() { g = malloc(); fork(t, w); }
            void w() { int* v = g; print(*v); }
            """
        )
        assert any(o.kind == "global" for o in bundle.interference.escaped)
        # The store precedes the fork, so the cross-thread flow is an
        # *ordered* dependence (dd), not interference — but the edge from
        # the global store to the child's load must exist.
        store_g = find(bundle.module, "main", StoreInst)
        load_g = find(bundle.module, "w", LoadInst)
        edges = [e for e in bundle.vfg.out_edges(StoreNode(store_g)) if e.load is load_g]
        assert edges and not edges[0].interthread

    def test_mhp_prunes_ordered_pairs(self):
        bundle = bundle_for(JOIN_PROTECTED)
        # The child's store may still interfere with the pre-join load,
        # but no edge may target the post-join load from... actually the
        # post-join load reads the child's store as an ordered (dd) edge.
        for edge in bundle.vfg.interference_edges():
            assert bundle.mhp.may_happen_in_parallel(edge.store, edge.load)

    def test_fixpoint_terminates(self):
        bundle = bundle_for(FIG2_BUGGY)
        assert bundle.interference.rounds <= 20

    def test_transitive_escape(self):
        # b points to o_b; b is stored into escaped o_x; o_b must escape.
        bundle = bundle_for(SIMPLE_UAF)
        module = bundle.module
        alloc_b = module.functions["worker"].body[1]  # formal store.. find alloc
        from repro.ir import AllocInst

        allocs = [i for i in module.functions["worker"].body if isinstance(i, AllocInst)]
        assert allocs[0].obj in bundle.interference.escaped

    def test_summary_counts(self):
        bundle = bundle_for(SIMPLE_UAF)
        s = bundle.summary()
        assert s["vfg_nodes"] > 0
        assert s["vfg_edges"] > 0
        assert s["threads"] == 2


#: ``use`` reads the global ``g`` that ``worker`` frees; ``mid`` and
#: ``main`` fill in how the read is reached from ``main``.
GLOBAL_READ_THROUGH_CALLS = """
int* g;
void use() { int* q = g; print(*q); }
void mid() { %s }
void worker() { free(g); }
void main() { g = malloc(); fork(t, worker); %s }
"""


def _uaf_count(mid_body, main_tail):
    source = GLOBAL_READ_THROUGH_CALLS % (mid_body, main_tail)
    return len(Canary(AnalysisConfig()).analyze_source(source).bugs)


class TestGlobalReadsThroughCalls:
    def test_read_one_call_deep(self):
        assert _uaf_count("use();", "use();") == 1

    def test_read_two_calls_deep_when_middle_reads_too(self):
        assert _uaf_count("int* r = g; use();", "mid();") == 1

    @pytest.mark.xfail(
        strict=True,
        reason="known unsoundness: _apply_initial_reads binds a callee's "
        "initial global content only from globals the caller touches itself",
    )
    def test_read_two_calls_deep(self):
        assert _uaf_count("use();", "mid();") == 1


def _forward_nodes(bundle, origin):
    """All nodes forward-reachable from ``origin``."""
    seen = set()
    stack = [origin]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for e in bundle.vfg.out_edges(node):
            stack.append(e.dst)
    return seen


def _forward_vars(bundle, var):
    """All variables forward-reachable from def(var)."""
    return {n.var for n in _forward_nodes(bundle, DefNode(var)) if isinstance(n, DefNode)}
