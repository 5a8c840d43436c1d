"""Seeded differential fuzzing of the CDCL core against brute force.

Random small CNF instances are solved by :class:`repro.smt.sat.SatSolver`
and cross-checked against exhaustive enumeration: verdicts must agree,
SAT models must satisfy every clause, assumptions must be honored, and
failed-assumption cores must themselves be inconsistent with the clause
set.

Seeds are fixed so failures reproduce; the trial counts keep the whole
module comfortably inside the tier-1 time budget.
"""

import itertools
import random

from repro.smt.sat import SAT, UNSAT, SatSolver


def brute_force_sat(num_vars, clauses, assumptions=()):
    """Exhaustive satisfiability of a clause list under fixed literals."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if any(bits[abs(lit) - 1] != (lit > 0) for lit in assumptions):
            continue
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def random_clauses(rng, num_vars, num_clauses, max_len=3):
    return [
        [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, max_len))
        ]
        for _ in range(num_clauses)
    ]


def assert_model_satisfies(model, clauses, context):
    for clause in clauses:
        assert any(
            model.get(abs(lit), False) == (lit > 0) for lit in clause
        ), f"{context}: model violates clause {clause}"


class TestDifferentialFuzz:
    def test_verdicts_and_models_match_brute_force(self):
        rng = random.Random(0xC0FFEE)
        checked = 0
        for trial in range(250):
            n = rng.randint(3, 9)
            clauses = random_clauses(rng, n, rng.randint(2, 28))
            solver = SatSolver()
            added_ok = all(solver.add_clause(list(c)) for c in clauses)
            expect = brute_force_sat(n, clauses)
            if not added_ok:
                # add_clause's early UNSAT must never be a false positive
                assert not expect, f"trial {trial}: eager UNSAT on a SAT set"
                continue
            result = solver.solve()
            assert (result is SAT) == expect, f"trial {trial}: {result}"
            if result is SAT:
                assert_model_satisfies(solver.model, clauses, f"trial {trial}")
            checked += 1
        assert checked > 50  # the generator must not degenerate

    def test_assumptions_honored_and_cores_sound(self):
        rng = random.Random(0xBAD5EED)
        for trial in range(150):
            n = rng.randint(3, 8)
            clauses = random_clauses(rng, n, rng.randint(2, 20))
            solver = SatSolver()
            if not all(solver.add_clause(list(c)) for c in clauses):
                continue
            # Warm instance: several assumption queries against one solver.
            for query in range(4):
                k = rng.randint(1, min(3, n))
                assume = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), k)
                ]
                expect = brute_force_sat(n, clauses, assume)
                result = solver.solve(assumptions=assume)
                assert solver.ok, f"trial {trial}.{query}: assumptions poisoned solver"
                assert (result is SAT) == expect, f"trial {trial}.{query}"
                if result is SAT:
                    for lit in assume:
                        assert solver.model.get(abs(lit), False) == (lit > 0), (
                            f"trial {trial}.{query}: assumption {lit} not honored"
                        )
                    assert_model_satisfies(
                        solver.model, clauses, f"trial {trial}.{query}"
                    )
                else:
                    core = solver.failed_assumptions
                    assert core, f"trial {trial}.{query}: UNSAT without a core"
                    assert set(core) <= set(assume)
                    # the core alone must already be inconsistent
                    assert not brute_force_sat(n, clauses, core), (
                        f"trial {trial}.{query}: core {core} is not a refutation"
                    )
