"""Tests for AST unrolling and lowering to the guarded partial-SSA IR."""

import pytest

from repro.frontend import parse_program
from repro.frontend import ast_nodes as A
from repro.ir import (
    AllocInst,
    CopyInst,
    ForkInst,
    FreeInst,
    LoadInst,
    PhiInst,
    SinkInst,
    StoreInst,
)
from repro.lowering import lower_program, unroll_loops
from repro.smt.terms import FALSE, TRUE, and_, not_

from programs import FIG2_BUG_FREE, FORK_IN_LOOP, NESTED_LOOPS


def lower(src, depth=2):
    return lower_program(parse_program(src), unroll_depth=depth)


def insts_of(module, func, cls):
    return [i for i in module.functions[func].body if isinstance(i, cls)]


class TestUnrolling:
    def test_while_becomes_nested_ifs(self):
        prog = parse_program("void main() { while (c) { x = 1; } }")
        out = unroll_loops(prog, depth=2)
        stmt = out.functions[0].body.body[0]
        assert isinstance(stmt, A.IfStmt)
        inner = stmt.then_body.body[-1]
        assert isinstance(inner, A.IfStmt)

    def test_depth_one(self):
        prog = parse_program("void main() { while (c) { x = 1; } }")
        out = unroll_loops(prog, depth=1)
        stmt = out.functions[0].body.body[0]
        assert isinstance(stmt, A.IfStmt)
        assert not any(isinstance(s, A.IfStmt) for s in stmt.then_body.body)

    def test_depth_zero_rejected(self):
        prog = parse_program("void main() {}")
        with pytest.raises(ValueError):
            unroll_loops(prog, depth=0)

    def test_input_not_mutated(self):
        prog = parse_program(NESTED_LOOPS)
        before = repr(prog)  # every field, locations included
        unroll_loops(prog, depth=3)
        assert repr(prog) == before
        assert isinstance(prog.functions[0].body.body[1], A.WhileStmt)

    def test_iterations_share_body_statements(self):
        prog = parse_program(NESTED_LOOPS)
        loop = prog.functions[0].body.body[1]
        first = unroll_loops(prog, depth=2).functions[0].body.body[1]
        second = first.then_body.body[-1]
        assert first.cond is second.cond is loop.cond
        # ``int j = 0;`` and ``i = i + 1;`` are the same objects in both
        # iterations and in the input; the inner loop is unrolled once.
        for stmts in (first.then_body.body, second.then_body.body):
            assert stmts[0] is loop.body.body[0]
            assert stmts[2] is loop.body.body[2]
        assert first.then_body.body[1] is second.then_body.body[1]
        assert isinstance(first.then_body.body[1], A.IfStmt)

    def test_analysis_leaves_parsed_ast_unchanged(self, monkeypatch):
        from repro import AnalysisConfig, Canary
        from repro.analysis import passes

        parsed = []

        def parse_and_snapshot(source, filename="<input>"):
            program = parse_program(source, filename)
            parsed.append((program, repr(program)))
            return program

        monkeypatch.setattr(passes, "parse_program", parse_and_snapshot)
        Canary(AnalysisConfig(use_cache=False)).analyze_source(NESTED_LOOPS)
        [(program, before)] = parsed
        assert repr(program) == before

    def test_nested_loops(self):
        prog = parse_program(
            "void main() { while (a) { while (b) { x = 1; } } }"
        )
        out = unroll_loops(prog, depth=2)
        # Fully unrolled: no while statements remain anywhere.
        def has_while(stmt):
            if isinstance(stmt, A.WhileStmt):
                return True
            if isinstance(stmt, A.BlockStmt):
                return any(has_while(s) for s in stmt.body)
            if isinstance(stmt, A.IfStmt):
                return has_while(stmt.then_body) or (
                    stmt.else_body is not None and has_while(stmt.else_body)
                )
            return False

        assert not has_while(out.functions[0].body)

    def test_fork_in_loop_duplicated(self):
        module = lower(FORK_IN_LOOP, depth=2)
        forks = insts_of(module, "main", ForkInst)
        assert len(forks) == 2  # one per unrolled iteration
        assert forks[0].label != forks[1].label


class TestLoweringBasics:
    def test_malloc_allocates_fresh_objects(self):
        module = lower("void main() { int* p = malloc(); int* q = malloc(); }")
        allocs = insts_of(module, "main", AllocInst)
        assert len(allocs) == 2
        assert allocs[0].obj is not allocs[1].obj

    def test_deref_becomes_load(self):
        module = lower("void main(int** p) { int* q = *p; }")
        assert len(insts_of(module, "main", LoadInst)) == 1

    def test_store_statement(self):
        module = lower("void main(int** p, int* v) { *p = v; }")
        stores = insts_of(module, "main", StoreInst)
        assert len(stores) == 1

    def test_free_and_print(self):
        module = lower("void main(int* p) { print(*p); free(p); }")
        assert len(insts_of(module, "main", FreeInst)) == 1
        assert len(insts_of(module, "main", SinkInst)) == 1
        # print(*p) loads first
        assert len(insts_of(module, "main", LoadInst)) == 1

    def test_labels_globally_unique(self):
        module = lower(FIG2_BUG_FREE)
        labels = [i.label for i in module.all_instructions()]
        assert len(labels) == len(set(labels))

    def test_externs_registered(self):
        module = lower("extern int flag; void main() {}")
        assert "flag" in module.externs

    def test_globals_registered(self):
        module = lower("int* g; void main() { g = malloc(); }")
        assert "g" in module.globals
        # writing a global is a store
        assert len(insts_of(module, "main", StoreInst)) == 1

    def test_addr_taken_local_becomes_memory(self):
        module = lower("void main() { int x; int* p = &x; *p = 3; int y = x; }")
        # reading x after &x goes through a load
        assert len(insts_of(module, "main", LoadInst)) == 1
        assert len(insts_of(module, "main", StoreInst)) == 1


class TestGuards:
    def test_branch_guards(self):
        module = lower(
            "extern int c; void main() { if (c) { int x = 1; } else { int y = 2; } }"
        )
        copies = insts_of(module, "main", CopyInst)
        assert len(copies) == 2
        then_guard, else_guard = copies[0].guard, copies[1].guard
        assert then_guard is not TRUE and else_guard is not TRUE
        assert and_(then_guard, else_guard) is FALSE  # complementary

    def test_correlated_across_functions(self):
        module = lower(FIG2_BUG_FREE)
        main_guard = next(
            i.guard for i in module.functions["main"].body if isinstance(i, LoadInst)
        )
        t1_guard = next(
            i.guard for i in module.functions["thread1"].body if isinstance(i, StoreInst)
        )
        assert and_(main_guard, t1_guard) is FALSE

    def test_nested_guards_conjoin(self):
        module = lower(
            "extern int a; extern int b;"
            "void main() { if (a) { if (b) { int x = 1; } } }"
        )
        copy = insts_of(module, "main", CopyInst)[0]
        # guard is a conjunction of two conditions
        from repro.smt.terms import And

        assert isinstance(copy.guard, And)
        assert len(copy.guard.args) == 2

    def test_phi_at_join(self):
        module = lower(
            "extern int c;"
            "void main() { int x = 1; if (c) { x = 2; } print(x); }"
        )
        phis = insts_of(module, "main", PhiInst)
        assert len(phis) == 1
        values = {repr(v) for v, _g in phis[0].incomings}
        assert len(values) == 2

    def test_no_phi_when_unchanged(self):
        module = lower(
            "extern int c;"
            "void main() { int x = 1; if (c) { int y = 2; } print(x); }"
        )
        assert insts_of(module, "main", PhiInst) == []

    def test_comparison_condition_precise(self):
        module = lower(
            "extern int n; void main() { if (n < 3) { int x = 1; } if (n >= 3) { int y = 2; } }"
        )
        copies = insts_of(module, "main", CopyInst)
        from repro.smt import quick_unsat

        assert quick_unsat(and_(copies[0].guard, copies[1].guard))

    def test_returns_recorded_with_guards(self):
        module = lower(
            "extern int c; int f() { if (c) { return 1; } return 2; }"
        )
        returns = module.functions["f"].returns
        assert len(returns) == 2
        assert returns[0][1] is not TRUE


class TestFunctionLowering:
    def test_fork_lowered(self):
        module = lower(FIG2_BUG_FREE)
        forks = insts_of(module, "main", ForkInst)
        assert len(forks) == 1
        assert forks[0].thread == "t"

    def test_call_with_return(self):
        module = lower("int id(int x) { return x; } void main() { int y = id(3); }")
        from repro.ir import CallInst

        calls = insts_of(module, "main", CallInst)
        assert len(calls) == 1
        assert calls[0].dst is not None

    def test_module_size(self):
        module = lower(FIG2_BUG_FREE)
        assert module.size() == len(list(module.all_instructions()))

    def test_pretty_output(self):
        module = lower(FIG2_BUG_FREE)
        text = module.pretty()
        assert "func main" in text and "func thread1" in text
        assert "fork" in text
