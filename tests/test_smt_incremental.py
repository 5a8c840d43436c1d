"""SAT-core reuse tests: UNKNOWN recovery and learnt-database reduction.

* every ``UNKNOWN`` exit of :meth:`SatSolver.solve` (conflict budget and
  deadline alike) leaves the solver backtracked to level zero with a
  consistent trail, so the instance can be re-solved (the DPLL(T) loop
  re-solves after every theory lemma);
* learnt-database reduction keeps verdicts exact.
"""

import itertools
import random
import time

from repro.smt.sat import SAT, UNKNOWN, UNSAT, SatSolver


def pigeonhole(holes):
    """PHP(holes+1, holes) clauses — UNSAT, needs real search."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def brute_force_sat(num_vars, clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=num_vars):
        if any(bits[abs(lit) - 1] != (lit > 0) for lit in assumptions):
            continue
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def assert_at_root(solver):
    """The invariant every solve() exit must restore (the bugfix)."""
    assert solver._trail_lim == []
    assert solver._prop_head <= len(solver._trail)
    for lit in solver._trail:
        assert solver._level[abs(lit) - 1] == 0


class TestUnknownRecovery:
    def test_resolve_after_conflict_budget_unknown(self):
        solver = SatSolver()
        for clause in pigeonhole(4):
            assert solver.add_clause(clause)
        result = solver.solve(max_conflicts=3)
        assert result is UNKNOWN
        assert solver.unknown_reason == "conflicts"
        assert_at_root(solver)
        # the warm instance must still decide correctly
        assert solver.solve() is UNSAT

    def test_resolve_after_deadline_unknown(self):
        solver = SatSolver()
        for clause in pigeonhole(4):
            assert solver.add_clause(clause)
        result = solver.solve(deadline=time.monotonic() + 1e-9)
        assert result is UNKNOWN
        assert solver.unknown_reason == "deadline"
        assert_at_root(solver)
        assert solver.solve() is UNSAT

    def test_model_integrity_after_unknown(self):
        # A SAT instance plus UNSAT ballast enabled by an assumption:
        # budget-UNKNOWN under the assumption, then the re-solve without
        # it must produce a valid model.
        base = [[1, 2], [-1, 2], [1, -2]]  # forces 2 true; SAT
        solver = SatSolver()
        for clause in base:
            assert solver.add_clause(clause)
        offset, act = 4, 3
        hard = [
            [lit + offset if lit > 0 else lit - offset for lit in c] + [-act]
            for c in pigeonhole(4)
        ]
        for clause in hard:
            assert solver.add_clause(clause)
        assert solver.solve(max_conflicts=2, assumptions=[act]) is UNKNOWN
        assert_at_root(solver)
        assert solver.solve(deadline=time.monotonic() + 1e-9, assumptions=[act]) is UNKNOWN
        assert_at_root(solver)
        assert solver.solve() is SAT
        assert solver.model[2] is True
        for clause in base:
            assert any(solver.model.get(abs(l), False) == (l > 0) for l in clause)


class TestDatabaseReduction:
    def test_reduction_keeps_verdict_exact(self):
        rng = random.Random(99)
        for trial in range(20):
            n = rng.randint(8, 12)
            clauses = [
                [
                    rng.choice([1, -1]) * rng.randint(1, n)
                    for _ in range(3)
                ]
                for _ in range(4 * n)
            ]
            expect = brute_force_sat(n, clauses)
            solver = SatSolver()
            if not all(solver.add_clause(list(c)) for c in clauses):
                assert not expect
                continue
            solver._max_learnts = 4  # force reductions early
            result = solver.solve()
            assert (result is SAT) == expect, f"trial {trial}"
        # at least one hard instance must actually have reduced
        solver = SatSolver()
        for clause in pigeonhole(5):
            solver.add_clause(clause)
        solver._max_learnts = 4
        assert solver.solve() is UNSAT
        assert solver.db_reductions >= 1
