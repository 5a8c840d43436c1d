"""Unit tests for the detection layer: Φ_po, Φ_ls, path search, solving."""

import pytest

from repro.detection import (
    OrderConstraintBuilder,
    PathQuery,
    PathSearcher,
    RealizabilityChecker,
    SearchLimits,
    ValueFlowPath,
    order_var,
)
from repro.ir import CallInst, ForkInst, FreeInst, LoadInst, SinkInst, StoreInst
from repro import AnalysisConfig, Canary
from repro.smt import SAT, TRUE, Solver, and_, implies, is_satisfiable, lt, or_
from repro.smt.terms import Lt, Or, conjuncts
from repro.vfg import DefNode, ObjNode, StoreNode

from programs import FIG2_BUGGY, JOIN_PROTECTED, SIMPLE_UAF, THROUGH_CALL, bundle_for
from test_corpus import CORPUS_FILES, _parse_directives


def find(module, func, cls, nth=0):
    return [i for i in module.functions[func].body if isinstance(i, cls)][nth]


class TestOrderVariables:
    def test_order_var_named_by_label(self):
        bundle = bundle_for(SIMPLE_UAF)
        inst = bundle.module.functions["main"].body[0]
        assert order_var(inst).name == f"O{inst.label}"

    def test_order_var_interned(self):
        bundle = bundle_for(SIMPLE_UAF)
        inst = bundle.module.functions["main"].body[0]
        assert order_var(inst) is order_var(inst)


class TestProgramOrder:
    def test_same_function_ordered(self):
        bundle = bundle_for(SIMPLE_UAF)
        builder = OrderConstraintBuilder(bundle)
        a, b = bundle.module.functions["main"].body[:2]
        term = builder.program_order_pair(a, b)
        # O_a < O_b must hold; its converse must be refutable.
        assert is_satisfiable(term)
        from repro.smt import and_, lt

        assert not is_satisfiable(and_(term, lt(order_var(b), order_var(a))))

    def test_concurrent_pair_unordered(self):
        bundle = bundle_for(SIMPLE_UAF)
        builder = OrderConstraintBuilder(bundle)
        load_main = find(bundle.module, "main", LoadInst)
        free_child = find(bundle.module, "worker", FreeInst)
        assert builder.program_order_pair(load_main, free_child) is TRUE

    def test_path_order_conjunction(self):
        bundle = bundle_for(SIMPLE_UAF)
        builder = OrderConstraintBuilder(bundle)
        body = bundle.module.functions["main"].body
        term = builder.program_order(body[:4])
        assert is_satisfiable(term)

    def test_duplicate_statements_deduped(self):
        bundle = bundle_for(SIMPLE_UAF)
        builder = OrderConstraintBuilder(bundle)
        inst = bundle.module.functions["main"].body[0]
        assert builder.program_order([inst, inst, inst]) is TRUE


class TestLoadStoreOrder:
    def test_interference_edge_gets_order(self):
        bundle = bundle_for(FIG2_BUGGY)
        builder = OrderConstraintBuilder(bundle)
        edge = bundle.vfg.interference_edges()[0]
        phi_ls = builder.load_store_order(edge)
        assert is_satisfiable(phi_ls)
        # the store-before-load atom must be part of it
        from repro.smt import and_, lt

        reverse = lt(order_var(edge.load), order_var(edge.store))
        assert not is_satisfiable(and_(phi_ls, reverse))

    def test_join_protected_overwrite_refuted(self):
        # In the bait_order shape the old value cannot survive the
        # child's overwrite once Φ_ls and Φ_po combine.
        src = """
        void main() {
            int** slot = malloc();
            int* a = malloc();
            *slot = a;
            fork(t, w, slot);
            join(t);
            int* v = *slot;
            print(*v);
        }
        void w(int** s) {
            int* fresh = malloc();
            *s = fresh;
        }
        """
        bundle = bundle_for(src)
        builder = OrderConstraintBuilder(bundle)
        store_main = find(bundle.module, "main", StoreInst)
        load_after_join = find(bundle.module, "main", LoadInst, 0)
        edges = [
            e
            for e in bundle.vfg.out_edges(StoreNode(store_main))
            if e.load is load_after_join
        ]
        assert edges
        phi = builder.load_store_order(edges[0])
        assert not is_satisfiable(phi)  # the child's store always intervenes


def reference_load_store_order(builder, edge):
    """Φ_ls of one load edge built afresh, straight from Eq. 2."""
    hb = builder.mhp.happens_before
    store, load = edge.store, edge.load
    parts = []
    if not hb(store, load):
        parts.append(lt(order_var(store), order_var(load)))
    for other, alias_guard in builder.bundle.object_stores.get(edge.obj, ()):
        if other is store or hb(other, store) or hb(load, other):
            continue
        no_overwrite = or_(
            lt(order_var(other), order_var(store)),
            lt(order_var(load), order_var(other)),
        )
        parts.append(implies(and_(other.guard, alias_guard), no_overwrite))
        parts.append(builder.program_order_pair(other, store))
        parts.append(builder.program_order_pair(other, load))
    return and_(*parts)


def no_overwrite_stores(phi_ls, edge):
    """The labels of the stores s' that a no-overwrite clause
    ``... ∨ O_s' < O_s ∨ O_l < O_s'`` of ``phi_ls`` mentions."""
    before_store, after_load = set(), set()
    for clause in conjuncts(phi_ls):
        if not isinstance(clause, Or):
            continue
        for atom in clause.args:
            if isinstance(atom, Lt) and atom.rhs is order_var(edge.store):
                before_store.add(atom.lhs.name)
            if isinstance(atom, Lt) and atom.lhs is order_var(edge.load):
                after_load.add(atom.rhs.name)
    return before_store & after_load


CORPUS_MODELS = [
    (path, model) for path in CORPUS_FILES for model in ("sc", "tso", "pso")
]


@pytest.mark.parametrize(
    "path,model",
    CORPUS_MODELS,
    ids=[f"{path.stem}-{model}" for path, model in CORPUS_MODELS],
)
def test_load_store_order_matches_reference_on_every_load_edge(path, model):
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(
        checkers=checkers, **{**overrides, "memory_model": model}
    )
    bundle = Canary(config).analyze_source(text, keep_bundle=True).bundle
    builder = OrderConstraintBuilder(bundle, memory_model=model)
    edges = [
        e
        for e in bundle.vfg.edges()
        if e.kind == "load" and None not in (e.store, e.load, e.obj)
    ]
    for _round in range(2):  # a cold and a warm skeleton
        for edge in edges:
            phi_ls = builder.load_store_order(edge)
            assert phi_ls is reference_load_store_order(builder, edge), edge
            stores = builder.interfering_stores(edge)
            assert len({s.label for s in stores}) == len(stores)
            assert {order_var(s).name for s in stores} == no_overwrite_stores(
                phi_ls, edge
            ), edge
            assert builder.load_store(edge) == (phi_ls, stores)


class TestPathSearch:
    def test_origin_visited_with_empty_path(self):
        bundle = bundle_for(SIMPLE_UAF)
        alloc = bundle.module.functions["worker"].body[0]
        visited = []
        PathSearcher(bundle).search(
            ObjNode(alloc.obj), lambda n, p: visited.append((n, len(p.edges)))
        )
        assert visited[0] == (ObjNode(alloc.obj), 0)
        assert len(visited) > 1

    def test_max_depth_respected(self):
        bundle = bundle_for(SIMPLE_UAF)
        alloc = bundle.module.functions["worker"].body[0]
        depths = []
        PathSearcher(bundle, SearchLimits(max_depth=1)).search(
            ObjNode(alloc.obj), lambda n, p: depths.append(len(p.edges))
        )
        assert max(depths) <= 1

    def test_no_node_revisits_on_path(self):
        bundle = bundle_for(THROUGH_CALL)
        alloc = bundle.module.functions["worker"].body[0]

        def check(node, path):
            nodes = path.nodes()
            assert len(nodes) == len(set(map(id, nodes))) or len(set(nodes)) == len(nodes)

        PathSearcher(bundle).search(ObjNode(alloc.obj), check)

    def test_context_matching_blocks_mismatched_returns(self):
        # f() and g() both call id(); value entering from f's callsite
        # must not exit through g's return edge.
        src = """
        int* id(int* v) { return v; }
        void main() {
            int* p = malloc();
            int* q = malloc();
            int* a = id(p);
            int* b = id(q);
            print(*a);
            print(*b);
        }
        """
        bundle = bundle_for(src)
        p_alloc = bundle.module.functions["main"].body[0]
        reached_vars = set()

        def collect(node, path):
            if isinstance(node, DefNode):
                reached_vars.add(node.var.source_name or node.var.name)

        PathSearcher(bundle).search(ObjNode(p_alloc.obj), collect)
        assert "a" in reached_vars
        assert "b" not in reached_vars  # would require mismatched call/ret

    def test_statements_extraction(self):
        bundle = bundle_for(SIMPLE_UAF)
        alloc = bundle.module.functions["worker"].body[0]
        paths = []
        PathSearcher(bundle).search(
            ObjNode(alloc.obj),
            lambda n, p: paths.append(ValueFlowPath(p.origin, list(p.edges))),
        )
        longest = max(paths, key=lambda p: len(p.edges))
        statements = longest.statements(bundle)
        assert statements
        assert all(s is not None for s in statements)


class TestRealizability:
    def test_empty_path_realizable(self):
        bundle = bundle_for(SIMPLE_UAF)
        checker = RealizabilityChecker(bundle)
        alloc = bundle.module.functions["worker"].body[0]
        query = PathQuery(
            path=ValueFlowPath(origin=ObjNode(alloc.obj)),
            source_inst=None,
            sink_inst=None,
        )
        assert checker.check(query).realizable

    def test_statistics_updated(self):
        bundle = bundle_for(SIMPLE_UAF)
        checker = RealizabilityChecker(bundle)
        alloc = bundle.module.functions["worker"].body[0]
        query = PathQuery(
            path=ValueFlowPath(origin=ObjNode(alloc.obj)),
            source_inst=None,
            sink_inst=None,
        )
        checker.check(query)
        assert checker.statistics["queries"] == 1
        assert checker.statistics["sat"] == 1

    def test_contradictory_extra_constraints(self):
        from repro.smt import lt, int_var

        bundle = bundle_for(SIMPLE_UAF)
        checker = RealizabilityChecker(bundle)
        alloc = bundle.module.functions["worker"].body[0]
        x = int_var("x")
        query = PathQuery(
            path=ValueFlowPath(origin=ObjNode(alloc.obj)),
            source_inst=None,
            sink_inst=None,
            extra_constraints=(lt(x, x),),
        )
        result = checker.check(query)
        assert not result.realizable
        assert result.verdict == "unsat"

    def test_witness_only_order_vars(self):
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(bundle)
        edge = bundle.vfg.interference_edges()[0]
        path = ValueFlowPath(origin=edge.src, edges=[edge])
        query = PathQuery(path=path, source_inst=None, sink_inst=None)
        result = checker.check(query)
        assert result.realizable
        assert all(k.startswith("O") for k in result.witness_order)
