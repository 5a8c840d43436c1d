"""Cube-and-conquer portfolio: split-atom selection and SAT/UNSAT/UNKNOWN
propagation across cubes (an undecided cube must never collapse to UNSAT)."""

import pytest

from repro.smt import (
    SAT,
    TRUE,
    UNKNOWN,
    UNSAT,
    Model,
    Solver,
    and_,
    bool_var,
    cube_solve,
    cube_solve_model,
    int_var,
    lt,
    not_,
    or_,
    pick_split_atoms,
    solve_formula,
)

a, b, c = bool_var("a"), bool_var("b"), bool_var("c")
x, y = int_var("px"), int_var("py")

#: UNSAT, but only after real CDCL conflicts: every assignment to {a, b}
#: falsifies one clause, and no clause is unit before the first decision.
FOUR_CLAUSE_UNSAT = and_(or_(a, b), or_(a, not_(b)), or_(not_(a), b), or_(not_(a), not_(b)))


def scripted_factory(outcomes):
    """A solver factory replaying (verdict, reason) pairs, one per cube,
    in cube enumeration order (the order cubes are solved in)."""
    remaining = list(outcomes)

    class Scripted:
        def __init__(self):
            self.verdict, reason = remaining.pop(0)
            self.unknown_reason = reason or None

        def add(self, *terms):
            pass

        def check(self):
            return self.verdict

        def model(self):
            return Model({}, {}) if self.verdict is SAT else None

    return Scripted


class TestSplitAtoms:
    def test_picks_most_frequent_atoms(self):
        formula = and_(or_(a, b), or_(a, c), or_(a, not_(b)))
        atoms = pick_split_atoms(formula, k=1)
        assert atoms == [a]

    def test_respects_k(self):
        formula = and_(or_(a, b), or_(b, c))
        assert len(pick_split_atoms(formula, k=2)) == 2

    def test_no_atoms_means_no_split(self):
        assert pick_split_atoms(TRUE) == []


class TestCubeVerdicts:
    def test_sat_formula_returns_model(self):
        formula = and_(or_(a, b), or_(not_(a), c))
        verdict, model, reason = cube_solve_model(formula)
        assert verdict is SAT
        assert reason == ""
        assert model is not None
        assert model.eval(formula) is True

    def test_unsat_only_when_every_cube_unsat(self):
        verdict, model, reason = cube_solve_model(FOUR_CLAUSE_UNSAT)
        assert verdict is UNSAT
        assert model is None
        assert reason == ""

    def test_verdict_only_wrapper_agrees(self):
        assert cube_solve(FOUR_CLAUSE_UNSAT) is UNSAT
        assert cube_solve(or_(a, b)) is SAT

    def test_arithmetic_sat_model_satisfies_original(self):
        formula = and_(lt(x, y), lt(x, x + 5))
        verdict, model, _reason = cube_solve_model(formula)
        assert verdict is SAT
        solver = Solver()
        solver.add(formula)
        assert solver.check() is SAT


class TestUnknownPropagation:
    def test_undecided_cube_never_collapses_to_unsat(self):
        verdict, model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT,
            split_atoms=[a],
            solver_factory=scripted_factory([(UNSAT, ""), (UNKNOWN, "conflicts")]),
        )
        assert verdict is UNKNOWN
        assert model is None
        assert reason == "conflicts"

    def test_first_undecided_cubes_reason_wins(self):
        verdict, _model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT,
            split_atoms=[a, b],
            solver_factory=scripted_factory(
                [(UNKNOWN, "deadline"), (UNSAT, ""), (UNKNOWN, "conflicts"), (UNSAT, "")]
            ),
        )
        assert verdict is UNKNOWN
        assert reason == "deadline"

    def test_sat_cube_wins_over_earlier_unknown(self):
        verdict, model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT,  # any formula with atoms; the script decides
            split_atoms=[a],
            solver_factory=scripted_factory([(UNKNOWN, "conflicts"), (SAT, "")]),
        )
        assert verdict is SAT
        assert model is not None
        assert reason == ""

    def test_reason_defaults_to_conflicts_when_solver_gave_none(self):
        verdict, _model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT,
            split_atoms=[a],
            solver_factory=scripted_factory([(UNKNOWN, ""), (UNSAT, "")]),
        )
        assert verdict is UNKNOWN
        assert reason == "conflicts"


class TestRealBudgets:
    def test_conflict_budget_yields_unknown_with_reason(self):
        # Splitting on a free atom keeps the hard subformula intact in
        # every cube, so the per-cube conflict budget actually binds.
        free = bool_var("free_split_atom")
        verdict, model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT, split_atoms=[free], max_conflicts=1
        )
        assert verdict is UNKNOWN
        assert model is None
        assert reason == "conflicts"

    def test_unbounded_same_formula_is_unsat(self):
        free = bool_var("free_split_atom")
        verdict, _model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT, split_atoms=[free]
        )
        assert verdict is UNSAT
        assert reason == ""

    def test_timeout_yields_unknown_deadline(self):
        # Split on a free atom so no cube is decided by unit propagation
        # or quick refutation before the (already expired) deadline check.
        free = bool_var("free_split_atom")
        verdict, _model, reason = cube_solve_model(
            FOUR_CLAUSE_UNSAT, split_atoms=[free], timeout=0.0
        )
        assert verdict is UNKNOWN
        assert reason == "deadline"

    def test_solve_formula_cube_path_propagates_reason(self):
        verdict, ints, bools, _seconds, reason = solve_formula(
            FOUR_CLAUSE_UNSAT, max_conflicts=1, use_cube=True
        )
        # Cubes on the formula's own atoms decide it by unit propagation,
        # so force the monolithic path's budget too for comparison.
        direct = solve_formula(FOUR_CLAUSE_UNSAT, max_conflicts=1)
        assert direct[0] is UNKNOWN and direct[4] == "conflicts"
        assert verdict in (UNSAT, UNKNOWN)
        if verdict is UNKNOWN:
            assert reason == "conflicts"
        assert ints == {} and bools == {}

    def test_decided_verdicts_have_empty_reason(self):
        verdict, _ints, _bools, _seconds, reason = solve_formula(or_(a, b))
        assert verdict is SAT
        assert reason == ""
