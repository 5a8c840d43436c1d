"""Unit tests for Alg. 2 internals: escape closure, Pted guards, widening."""

import pathlib

import pytest

from repro import AnalysisConfig, Canary
from repro.frontend import parse_program
from repro.ir import AllocInst, LoadInst, StoreInst
from repro.lowering import lower_program
from repro.smt.terms import TRUE
from repro.vfg import DefNode, ObjNode, build_vfg

from programs import FIG2_BUGGY, FIG2_BUG_FREE, SIMPLE_UAF

CORPUS = pathlib.Path(__file__).parent / "corpus"


def bundle_for(src, **kw):
    return build_vfg(lower_program(parse_program(src)), **kw)


def allocs(module, func):
    return [i for i in module.functions[func].body if isinstance(i, AllocInst)]


class TestEscapeSeeding:
    def test_fork_argument_objects_escape(self):
        bundle = bundle_for(SIMPLE_UAF)
        slot_obj = allocs(bundle.module, "main")[0].obj
        assert slot_obj in bundle.interference.escaped

    def test_globals_escape(self):
        bundle = bundle_for(
            "int* g; void main() { g = malloc(); } "
        )
        assert any(o.kind == "global" for o in bundle.interference.escaped)

    def test_local_only_objects_do_not_escape(self):
        bundle = bundle_for(
            """
            void main() {
                int** private = malloc();
                int* v = malloc();
                *private = v;
                int* got = *private;
                print(*got);
                fork(t, w);
            }
            void w() { int* x = malloc(); print(*x); }
            """
        )
        main_allocs = allocs(bundle.module, "main")
        for inst in main_allocs:
            assert inst.obj not in bundle.interference.escaped

    def test_transitive_escape_through_store(self):
        # o_fresh escapes because a pointer to it is stored into the
        # escaped slot (Alg. 2 lines 14-18).
        bundle = bundle_for(SIMPLE_UAF)
        fresh_obj = allocs(bundle.module, "worker")[0].obj
        assert fresh_obj in bundle.interference.escaped


class TestPtedSets:
    def test_pted_contains_both_thread_pointers(self):
        bundle = bundle_for(FIG2_BUGGY)
        slot_obj = allocs(bundle.module, "main")[0].obj
        pted = bundle.interference.pted[slot_obj]
        def_vars = {n.var.source_name for n in pted if isinstance(n, DefNode)}
        assert "x" in def_vars and "y" in def_vars

    def test_pted_guard_query(self):
        bundle = bundle_for(FIG2_BUGGY)
        slot_obj = allocs(bundle.module, "main")[0].obj
        store = next(
            i
            for i in bundle.module.functions["thread1"].body
            if isinstance(i, StoreInst)
        )
        guard = bundle.interference.pted_guard(slot_obj, DefNode(store.pointer))
        assert guard is not None

    def test_points_to_objects_query(self):
        bundle = bundle_for(SIMPLE_UAF)
        free_inst = next(
            i
            for i in bundle.module.functions["worker"].body
            if i.brief().startswith("free")
        )
        objs = bundle.interference.points_to_objects(free_inst.pointer)
        assert len(objs) == 1
        assert next(iter(objs)).kind == "heap"

    def test_object_stores_index(self):
        bundle = bundle_for(FIG2_BUGGY)
        slot_obj = allocs(bundle.module, "main")[0].obj
        stores = bundle.interference.object_stores[slot_obj]
        assert len(stores) == 2  # main's *x = a and thread1's *y = b


class TestFixpointBehavior:
    def test_round_count_bounded(self):
        bundle = bundle_for(FIG2_BUGGY, max_interference_rounds=3)
        assert bundle.interference.rounds <= 3

    def test_idempotent_edges(self):
        # Running the pipeline twice over the same module adds nothing new.
        module = lower_program(parse_program(FIG2_BUGGY))
        a = build_vfg(module)
        edges_before = a.vfg.num_edges
        a.interference.run()  # second run over the same graph
        assert a.vfg.num_edges == edges_before

    @pytest.mark.parametrize("cap", [1, 2, 3, None])
    def test_truncated_fixpoint_warns(self, cap):
        # The inner object escapes only in round 2, and its interference
        # edge lands in round 2; round 3 adds nothing.  A cap that stops
        # a round still adding edges must say so.
        text = (CORPUS / "uaf_summary_chained_escape.mcc").read_text()
        config = AnalysisConfig(use_cache=False)
        if cap is not None:
            config = AnalysisConfig(use_cache=False, max_interference_rounds=cap)
        report = Canary(config).analyze_source(text, keep_bundle=True)
        cut = cap is not None and cap < 3
        warnings = [w for w in report.truncation_warnings if w.startswith("interference")]
        assert len(warnings) == cut
        assert report.metrics.snapshot().get("interference.truncated", 0) == cut
        assert report.bundle.interference.truncated == cut
        if not cut:
            lines = [(b.source.location.line, b.sink.location.line) for b in report.bugs]
            assert lines == [(22, 34)]

    def test_no_mhp_more_or_equal_edges(self):
        precise = bundle_for(SIMPLE_UAF)
        loose = bundle_for(SIMPLE_UAF, use_mhp=False)
        assert (
            loose.interference.interference_edge_count
            >= precise.interference.interference_edge_count
        )
