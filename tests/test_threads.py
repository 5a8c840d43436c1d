"""Tests for Steensgaard points-to, thread call graph, happens-before/MHP."""

import pytest

from repro import AnalysisConfig, Canary
from repro.frontend import parse_program
from repro.ir import ForkInst, FreeInst, JoinInst, LoadInst, SinkInst, StoreInst
from repro.lowering import lower_program
from repro.pointer import steensgaard
from repro.threads import MhpAnalysis, build_thread_call_graph

from programs import FIG2_BUG_FREE, FORK_IN_LOOP, JOIN_PROTECTED, SIMPLE_UAF
from test_corpus import CORPUS_FILES


def lower(src):
    return lower_program(parse_program(src))


def setup(src):
    module = lower(src)
    tcg = build_thread_call_graph(module)
    return module, tcg, MhpAnalysis(tcg)


def find(module, func, cls, nth=0):
    found = [i for i in module.functions[func].body if isinstance(i, cls)]
    return found[nth]


class TestSteensgaard:
    def test_direct_fork_target(self):
        module = lower(SIMPLE_UAF)
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert pts.callees(fork.callee) == {"worker"}

    def test_function_pointer_through_variable(self):
        module = lower(
            """
            void work() {}
            void main() {
                int* fp = work;
                fork(t, fp);
            }
            """
        )
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert "work" in pts.callees(fork.callee)

    def test_function_pointer_through_memory(self):
        module = lower(
            """
            void work() {}
            void main() {
                int** slot = malloc();
                *slot = work;
                int* fp = *slot;
                fork(t, fp);
            }
            """
        )
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert "work" in pts.callees(fork.callee)

    def test_may_alias_same_object(self):
        module = lower("void main() { int* p = malloc(); int* q = p; *q = 1; }")
        pts = steensgaard(module)
        main = module.functions["main"]
        p = main.body[0].dst
        store = find(module, "main", StoreInst)
        assert pts.may_alias(p, store.pointer)

    def test_no_alias_distinct_objects(self):
        module = lower("void main() { int* p = malloc(); int* q = malloc(); }")
        pts = steensgaard(module)
        main = module.functions["main"]
        p, q = main.body[0].dst, main.body[2].dst
        assert not pts.may_alias(p, q)

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_indirect_call_chain_reaches_fixpoint(self, depth):
        # Each level of the chain resolves only once the level above has
        # bound its parameters, so the fork target needs ``depth`` rounds.
        module = lower(indirect_chain(depth))
        pts = steensgaard(module)
        fork = find(module, "f1", ForkInst)
        assert pts.callees(fork.callee) == {"w"}

    def test_uaf_in_thread_forked_through_deep_chain(self):
        report = Canary(AnalysisConfig()).analyze_source(
            indirect_chain(6), keep_bundle=True
        )
        functions = report.bundle.module.functions
        assert [
            (b.kind, b.source in functions["main"].body, b.sink in functions["w"].body)
            for b in report.bugs
        ] == [("use-after-free", True, True)]


def indirect_chain(depth):
    """``main`` calls ``f<depth>`` through a pointer; each ``f<k>`` calls
    its first parameter with the rest, down to ``f1``, which forks ``w``.
    ``w`` reads the global that ``main`` frees after the chain returns."""
    lines = [
        "int* g;",
        "void w() { int* q = g; print(*q); }",
        "void f1(int* p0) { fork(t, p0); }",
    ]
    for k in range(2, depth + 1):
        params = ", ".join(f"int* p{i}" for i in range(k))
        args = ", ".join(f"p{i}" for i in range(1, k))
        lines.append(f"void f{k}({params}) {{ p0({args}); }}")
    args = ", ".join([f"f{k}" for k in range(depth - 1, 0, -1)] + ["w"])
    lines.append(f"void main() {{ g = malloc(); int* x = f{depth}; x({args}); free(g); }}")
    return "\n".join(lines)


class TestThreadCallGraph:
    def test_main_plus_fork(self):
        _module, tcg, _ = setup(SIMPLE_UAF)
        assert len(tcg.threads) == 2
        assert "main" in tcg.threads
        child = next(t for t in tcg.threads.values() if t.tid != "main")
        assert child.entry == "worker"
        assert child.parent == "main"

    def test_fork_in_loop_two_threads(self):
        _module, tcg, _ = setup(FORK_IN_LOOP)
        assert len(tcg.threads) == 3  # main + 2 unrolled forks

    def test_threads_of_function(self):
        module, tcg, _ = setup(FIG2_BUG_FREE)
        assert tcg.threads_of_function["main"] == {"main"}
        (worker_tid,) = tcg.threads_of_function["thread1"]
        assert worker_tid.startswith("t@")

    def test_function_shared_by_threads(self):
        module, tcg, _ = setup(
            """
            void helper() {}
            void main() { helper(); fork(t, worker); }
            void worker() { helper(); }
            """
        )
        assert len(tcg.threads_of_function["helper"]) == 2

    def test_reverse_topological_order(self):
        module, tcg, _ = setup(
            """
            void c() {}
            void b() { c(); }
            void a() { b(); }
            void main() { a(); }
            """
        )
        order = tcg.reverse_topological_functions()
        assert order.index("c") < order.index("b") < order.index("a")
        assert order.index("a") < order.index("main")

    def test_nested_forks(self):
        _module, tcg, _ = setup(
            """
            void inner() {}
            void outer() { fork(t2, inner); }
            void main() { fork(t1, outer); }
            """
        )
        assert len(tcg.threads) == 3
        inner_thread = next(t for t in tcg.threads.values() if t.entry == "inner")
        assert tcg.threads[inner_thread.parent].entry == "outer"

    def test_ancestors(self):
        _module, tcg, _ = setup(
            """
            void inner() {}
            void outer() { fork(t2, inner); }
            void main() { fork(t1, outer); }
            """
        )
        inner_tid = next(t.tid for t in tcg.threads.values() if t.entry == "inner")
        chain = tcg.ancestors(inner_tid)
        assert chain[-1] == "main"
        assert len(chain) == 2


class TestHappensBefore:
    def test_same_function_label_order(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        main = module.functions["main"].body
        assert mhp.happens_before(main[0], main[1])
        assert not mhp.happens_before(main[1], main[0])

    def test_before_fork_hb_child(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        store_main = find(module, "main", StoreInst)  # before the fork
        free_child = find(module, "worker", FreeInst)
        assert mhp.happens_before(store_main, free_child)
        assert not mhp.happens_before(free_child, store_main)

    def test_after_fork_not_hb_child(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        load_main = find(module, "main", LoadInst)  # after the fork
        free_child = find(module, "worker", FreeInst)
        assert not mhp.happens_before(load_main, free_child)
        assert not mhp.happens_before(free_child, load_main)

    def test_join_orders_child_before_parent_continuation(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        print_sink = find(module, "main", SinkInst)  # after join(t)
        assert mhp.happens_before(child_store, print_sink)

    def test_join_matches_only_threads_its_own_function_forked(self):
        # main joins its own t; spawn() forks the worker under the same
        # source name t but never joins it.
        module, _tcg, mhp = setup(JOIN_NAME_REUSED)
        use = find(module, "worker", SinkInst)
        free_main = find(module, "main", FreeInst)
        assert not mhp.happens_before(use, free_main)
        assert mhp.may_happen_in_parallel(use, free_main)
        # main's own t is still joined before the free.
        assert mhp.happens_before(find(module, "noop", SinkInst), free_main)

    def test_join_before_the_fork_does_not_join_it(self):
        module, _tcg, mhp = setup(
            """
            void w() { print(1); }
            void main() { join(t); fork(t, w); print(2); }
            """
        )
        child = find(module, "w", SinkInst)
        after = find(module, "main", SinkInst)
        assert not mhp.happens_before(child, after)
        assert mhp.may_happen_in_parallel(child, after)

    def test_reused_join_name_reports_the_use_after_free(self):
        report = Canary(AnalysisConfig()).analyze_source(JOIN_NAME_REUSED)
        assert [b.kind for b in report.bugs] == ["use-after-free"]

    def test_join_does_not_order_statements_before_it(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        load_main = find(module, "main", LoadInst, nth=0)  # c = *x, before join
        assert not mhp.happens_before(child_store, load_main)


JOIN_NAME_REUSED = """
void worker(int** s) {
    int* q = *s;
    print(*q);
}
void noop(int x) { print(x); }
void spawn(int** s) { fork(t, worker, s); }
void main() {
    int** slot = malloc();
    int* buf = malloc();
    *slot = buf;
    fork(t, noop, 1);
    join(t);
    spawn(slot);
    int* p = *slot;
    free(p);
}
"""


class TestMhp:
    def test_parallel_after_fork(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        load_main = find(module, "main", LoadInst)
        free_child = find(module, "worker", FreeInst)
        assert mhp.may_happen_in_parallel(load_main, free_child)

    def test_not_parallel_before_fork(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        store_main = find(module, "main", StoreInst)
        free_child = find(module, "worker", FreeInst)
        assert not mhp.may_happen_in_parallel(store_main, free_child)

    def test_not_parallel_after_join(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        print_sink = find(module, "main", SinkInst)
        assert not mhp.may_happen_in_parallel(child_store, print_sink)

    def test_same_thread_never_parallel(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        main = module.functions["main"].body
        assert not mhp.may_happen_in_parallel(main[0], main[1])

    def test_sibling_threads_parallel(self):
        module, _tcg, mhp = setup(
            """
            void a() { int* p = malloc(); free(p); }
            void b() { int* q = malloc(); free(q); }
            void main() { fork(t1, a); fork(t2, b); }
            """
        )
        free_a = find(module, "a", FreeInst)
        free_b = find(module, "b", FreeInst)
        assert mhp.may_happen_in_parallel(free_a, free_b)


class ReferenceOrder:
    """Structural happens-before written straight from its definition:
    the fork chain walked and the joins scanned again for every query.

    A join(t) joins the threads that its own function forked under the
    source name t at an earlier label.
    """

    def __init__(self, tcg):
        self.tcg = tcg
        self.module = tcg.module

    def threads(self, inst):
        func = self.module.function_of(inst)
        return [t.tid for t in self.tcg.threads.values() if func in t.functions]

    def hb_under(self, a, ta, b, tb):
        func_of = self.module.function_of
        if ta == tb:
            return func_of(a) == func_of(b) and a.label < b.label
        thread = self.tcg.threads[tb]
        while thread.fork is not None and thread.parent is not None:
            if thread.parent == ta:
                return func_of(a) == func_of(thread.fork) and a.label <= thread.fork.label
            thread = self.tcg.threads[thread.parent]
        joined = self.tcg.threads[ta]
        func_b = func_of(b)
        if joined.fork is None or func_of(joined.fork) != func_b:
            return False
        if func_b not in self.tcg.threads[tb].functions:
            return False
        return any(
            isinstance(inst, JoinInst)
            and inst.thread == joined.name_in_source
            and joined.fork.label < inst.label < b.label
            for inst in self.module.functions[func_b].body
        )

    def happens_before(self, a, b):
        ts_a, ts_b = self.threads(a), self.threads(b)
        if not ts_a or not ts_b:
            return False
        return all(self.hb_under(a, ta, b, tb) for ta in ts_a for tb in ts_b)

    def may_happen_in_parallel(self, a, b):
        return any(
            ta != tb and not self.hb_under(a, ta, b, tb) and not self.hb_under(b, tb, a, ta)
            for ta in self.threads(a)
            for tb in self.threads(b)
        )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_mhp_matches_reference_on_every_instruction_pair(path):
    module, tcg, mhp = setup(path.read_text())
    ref = ReferenceOrder(tcg)
    insts = list(module.all_instructions())
    for a in insts:
        for b in insts:
            assert mhp.happens_before(a, b) == ref.happens_before(a, b), (a, b)
            assert mhp.may_happen_in_parallel(a, b) == ref.may_happen_in_parallel(a, b), (a, b)


def test_threads_of_returns_the_stored_frozenset():
    module, tcg, _ = setup(FIG2_BUG_FREE)
    ref = ReferenceOrder(tcg)
    for func in module.functions.values():
        for inst in func.body:
            got = tcg.threads_of(inst)
            assert type(got) is frozenset
            assert got is tcg.threads_of(inst)
            assert got is tcg.threads_of_function.get(func.name, got)
            assert got == frozenset(ref.threads(inst))
