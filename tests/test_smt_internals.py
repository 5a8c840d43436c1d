"""Unit tests for SMT internals: CNF encoding, clause loading and difference
logic."""

import random

import pytest

from repro import AnalysisConfig, Canary
from repro.detection.realizability import RealizabilityChecker
from repro.obs import Tracer
from repro.smt import SAT, Solver, and_, bool_var, int_var, lt, not_, or_, solve_formula
from repro.smt.cnf import CnfEncoder
from repro.smt.sat import SatSolver, SAT as SAT_RES, UNSAT as UNSAT_RES, UNKNOWN
from repro.smt.solver import _eliminate_eq
from repro.smt.theory import (
    DifferenceBound,
    DifferenceLogicSolver,
    ZERO_NAME,
    _bound_from,
    negate_bound,
    normalize_atom,
)
from repro.smt.terms import FALSE, TRUE, Eq, Le, Lt, _intern, eq, int_const, le

from test_corpus import CORPUS_FILES, _parse_directives


class TestCnfEncoder:
    def test_atom_gets_variable(self):
        enc = CnfEncoder()
        a = bool_var("a")
        v = enc.var_for_atom(a)
        assert enc.atom_of_var[v] is a
        assert enc.var_for_atom(a) == v  # stable

    def test_unit_assertion(self):
        enc = CnfEncoder()
        enc.add_assertion(bool_var("a"))
        assert [c for c in enc.clauses if len(c) == 1]

    def test_conjunction_splits(self):
        enc = CnfEncoder()
        enc.add_assertion(and_(bool_var("a"), bool_var("b")))
        units = [c[0] for c in enc.clauses if len(c) == 1]
        assert len(units) == 2

    def test_disjunction_single_clause(self):
        enc = CnfEncoder()
        enc.add_assertion(or_(bool_var("a"), bool_var("b")))
        # one unit for the gate + defining clauses
        assert enc.num_vars >= 3

    def test_false_assertion_empty_clause(self):
        enc = CnfEncoder()
        enc.add_assertion(FALSE)
        assert [] in enc.clauses

    def test_theory_atoms_identified(self):
        enc = CnfEncoder()
        enc.add_assertion(and_(bool_var("a"), lt(int_var("x"), int_var("y"))))
        theory = enc.theory_atoms()
        assert len(theory) == 1

    def test_gate_sharing(self):
        enc = CnfEncoder()
        d = or_(bool_var("a"), bool_var("b"))
        enc.add_assertion(or_(d, bool_var("c")))
        before = enc.num_vars
        enc.add_assertion(or_(d, bool_var("e")))
        # the shared gate for d is reused
        assert enc.num_vars == before + 2  # only e and the new or-gate


class TestSatSolverDirect:
    def test_empty_instance_sat(self):
        assert SatSolver().solve() is SAT_RES

    def test_unit_conflict(self):
        s = SatSolver()
        assert s.add_clause([1])
        assert not s.add_clause([-1])
        assert s.solve() is UNSAT_RES

    def test_three_sat_instance(self):
        s = SatSolver()
        for clause in ([1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2]):
            s.add_clause(clause)
        assert s.solve() is SAT_RES
        assert s.model[2] is True
        assert s.model[1] is False and s.model[3] is False

    def test_unsat_core_instance(self):
        s = SatSolver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            s.add_clause(clause)
        assert s.solve() is UNSAT_RES

    def test_incremental_clause_addition(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve() is SAT_RES
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() is UNSAT_RES

    def test_tautology_ignored(self):
        s = SatSolver()
        assert s.add_clause([1, -1])
        assert s.solve() is SAT_RES

    def test_conflict_budget(self):
        # A hard-ish pigeonhole: 4 pigeons, 3 holes.
        s = SatSolver()
        def var(p, h):
            return p * 3 + h + 1
        for p in range(4):
            s.add_clause([var(p, h) for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve(max_conflicts=1) in (UNKNOWN, UNSAT_RES)
        assert s.solve() is UNSAT_RES


def _random_formula(rng, depth):
    x, y, z = int_var("lx"), int_var("ly"), int_var("lz")
    leaves = (
        bool_var("la"),
        bool_var("lb"),
        bool_var("lc"),
        lt(x, y),
        le(y, z),
        lt(z, int_const(2)),
        eq(x, z),
        TRUE,
        FALSE,
    )
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(leaves)
        return not_(leaf) if rng.random() < 0.4 else leaf
    op = rng.choice((and_, or_))
    return op(*(_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 4))))


def _loaded_state(sat, num_vars):
    """Everything clause loading decides about variables ``1..num_vars``,
    watch lists as clause literals."""
    return (
        sat._ok,
        list(sat._trail),
        sat._assign[:num_vars],
        sat._num_clauses,
        [[list(clause.lits) for clause in watchers] for watchers in sat._watches[: 2 * num_vars]],
    )


def _corpus_phi_all():
    """Every Φ_all detection solves on the corpus, under SC, TSO and PSO."""
    formulas = []
    original = RealizabilityChecker.check_formula

    def recording(self, formula):
        formulas.append(formula)
        return original(self, formula)

    RealizabilityChecker.check_formula = recording
    try:
        for path in CORPUS_FILES:
            text = path.read_text()
            _expects, checkers, overrides = _parse_directives(text)
            for model in ("sc", "tso", "pso"):
                config = AnalysisConfig(
                    checkers=tuple(checkers),
                    **{**overrides, "memory_model": model},
                )
                Canary(config).analyze_source(text)
    finally:
        RealizabilityChecker.check_formula = original
    return formulas


class TestClauseLoading:
    def test_bulk_load_matches_clause_by_clause(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            formula = and_(*(_random_formula(rng, 3) for _ in range(rng.randint(1, 5))))
            enc = CnfEncoder()
            enc.add_assertion(formula)
            ref = SatSolver()
            for clause in enc.clauses:
                ref.add_clause(clause)
            bulk = SatSolver()
            assert bulk.add_fresh_clauses(enc.clauses, enc.num_vars) == ref.ok
            n = ref._num_vars
            assert _loaded_state(bulk, n) == _loaded_state(ref, n), formula.pretty()
            # Clause-by-clause loading stops growing at a root conflict;
            # the bulk loader sized every array up front and left the
            # rest untouched.
            assert not any(bulk._assign[n:]) and not any(bulk._watches[2 * n :])
            if ref.ok:
                assert bulk._num_vars == n == enc.num_vars
                assert bulk.solve() == ref.solve()
                assert bulk.model == ref.model
            outcomes.add(ref.ok)
        assert outcomes == {True, False}  # root-UNSAT formulas were covered

    def test_load_after_root_unsat_is_refused(self):
        sat = SatSolver()
        assert not sat.add_fresh_clauses([[1], [-1]], 1)
        assert not sat.add_fresh_clauses([[2, 3]], 3)
        assert sat.solve() is UNSAT_RES

    def test_corpus_clauses_have_no_duplicate_or_complementary_literal(self):
        formulas = _corpus_phi_all()
        assert formulas
        for formula in formulas:
            enc = CnfEncoder()
            enc.add_assertion(formula)
            if enc.saw_eq:
                enc = CnfEncoder()
                enc.add_assertion(_eliminate_eq(formula, {}))
            for clause in enc.clauses:
                lits = set(clause)
                assert len(lits) == len(clause), clause
                assert not any(-lit in lits for lit in lits), clause

    def test_eq_fallback_matches_eager_rewrite(self):
        # An Eq under an And and under an Or: the encoder meets it, so
        # check() rewrites and re-encodes.  Verdict and model must be
        # those of the formula rewritten up front, and those the eager
        # rewrite of every formula produced before the fallback existed.
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        a = bool_var("a")
        with_eq = and_(
            eq(x, y + 1), or_(eq(y, z + 2), a), lt(z, x), or_(not_(a), le(z, int_const(-3)))
        )
        rewritten = and_(
            le(x, y + 1),
            le(y + 1, x),
            or_(and_(le(y, z + 2), le(z + 2, y)), a),
            lt(z, x),
            or_(not_(a), le(z, int_const(-3))),
        )
        enc = CnfEncoder()
        enc.add_assertion(with_eq)
        assert enc.saw_eq
        answers = []
        for formula in (with_eq, rewritten):
            solver = Solver()
            solver.add(formula)
            assert solver.check() is SAT
            model = solver.model()
            bools = {atom.pretty(): value for atom, value in model.bool_assignments().items()}
            answers.append((model.order(), bools))
        assert answers[0] == answers[1]
        assert answers[0][0] == {"x": 0, "y": -1, "z": -4}
        assert answers[0][1] == {
            "(< z x)": True,
            "(<= (+ y 1) x)": True,
            "(<= (+ z 2) y)": True,
            "(<= x (+ y 1))": True,
            "(<= y (+ z 2))": False,
            "(<= z -3)": True,
            "a": True,
        }

    def test_no_eq_means_one_encoding(self):
        x, y = int_var("x"), int_var("y")
        enc = CnfEncoder()
        enc.add_assertion(or_(lt(x, y), bool_var("a")))
        assert not enc.saw_eq

    def test_eq_rewrite_returns_unchanged_terms_as_is(self):
        x, y = int_var("x"), int_var("y")
        a, b = bool_var("a"), bool_var("b")
        term = and_(or_(a, lt(x, y)), not_(or_(b, le(y, x))))
        assert _eliminate_eq(term, {}) is term


class TestDifferenceLogicUnit:
    def test_normalize_le(self):
        x, y = int_var("x"), int_var("y")
        [b] = normalize_atom(le(x, y))
        assert b == DifferenceBound("x", "y", 0)

    def test_normalize_lt_constant(self):
        x = int_var("x")
        [b] = normalize_atom(lt(x, 5))
        assert b == DifferenceBound("x", ZERO_NAME, 4)

    def test_normalize_eq_two_bounds(self):
        x, y = int_var("x"), int_var("y")
        bounds = normalize_atom(eq(x, y))
        assert len(bounds) == 2

    def test_normalize_difference(self):
        x, y = int_var("x"), int_var("y")
        [b] = normalize_atom(le(x - y, 3))
        assert b == DifferenceBound("x", "y", 3)

    def test_normalize_rejects_nonunit(self):
        x = int_var("x")
        with pytest.raises(ValueError):
            normalize_atom(le(x + x, 3))

    def test_normalize_boolean_atom_is_none(self):
        assert normalize_atom(bool_var("a")) is None

    @staticmethod
    def _general(atom):
        """normalize_atom through linearization only."""
        if isinstance(atom, Eq):
            return [
                _bound_from(atom.lhs, atom.rhs, slack=0),
                _bound_from(atom.rhs, atom.lhs, slack=0),
            ]
        return [_bound_from(atom.lhs, atom.rhs, slack=-1 if isinstance(atom, Lt) else 0)]

    def test_direct_path_matches_linearization(self):
        x, y = int_var("x"), int_var("y")
        operands = [x, y, int_const(0), int_const(7), int_const(-3), x + 2, x - y, y - 1]
        atoms = [
            _intern(cls, a, b)  # built raw: no folding of x < x or 7 <= 7
            for cls in (Lt, Le, Eq)
            for a in operands
            for b in operands
        ]
        checked = 0
        for atom in atoms:
            try:
                want = self._general(atom)
            except ValueError:
                with pytest.raises(ValueError):
                    normalize_atom(atom)
                continue
            assert normalize_atom(atom) == want, atom.pretty()
            checked += 1
        assert checked > 100
        assert normalize_atom(_intern(Lt, x, x)) == [DifferenceBound(ZERO_NAME, ZERO_NAME, -1)]
        assert normalize_atom(lt(x, y)) == [DifferenceBound("x", "y", -1)]
        assert normalize_atom(le(y, x)) == [DifferenceBound("y", "x", 0)]

    def test_negate_bound(self):
        b = DifferenceBound("x", "y", 3)
        nb = negate_bound(b)
        assert nb == DifferenceBound("y", "x", -4)
        assert negate_bound(nb) == b

    def test_push_pop(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -1), "a")
        mark = solver.push()
        solver.assert_bound(DifferenceBound("y", "x", -1), "b")
        assert solver.check() is not None
        solver.pop(mark)
        assert solver.check() is None

    def test_core_tags(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -1), "e1")
        solver.assert_bound(DifferenceBound("y", "z", -1), "e2")
        solver.assert_bound(DifferenceBound("z", "x", -1), "e3")
        solver.assert_bound(DifferenceBound("x", "w", 5), "unrelated")
        core = solver.check()
        assert core is not None
        assert set(core) == {"e1", "e2", "e3"}

    def test_model_respects_bounds(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -2), "a")  # x <= y - 2
        assert solver.check() is None
        model = solver.model()
        assert model["x"] - model["y"] <= -2

    def test_model_reads_the_potentials_of_check(self):
        solver = DifferenceLogicSolver()
        bounds = [
            DifferenceBound("a", "b", -1),
            DifferenceBound("b", "c", -2),
            DifferenceBound("c", ZERO_NAME, 3),
            DifferenceBound("d", "a", 0),
        ]
        for b in bounds:
            solver.assert_bound(b, b)
        assert solver.check() is None
        model = solver.model()
        assert model[ZERO_NAME] == 0
        assert all(model[b.x] - model[b.y] <= b.c for b in bounds)
        # Bellman-Ford from all-zero distances, shifted so $zero is 0.
        assert model == {"a": -3, "b": -2, "c": 0, "d": -3, ZERO_NAME: 0}
        solver.assert_bound(DifferenceBound("a", "d", -5), "late")
        with pytest.raises(ValueError):
            solver.model()  # a new bound invalidates the potentials
        assert solver.check() is not None

    def test_empty_graph_model(self):
        solver = DifferenceLogicSolver()
        assert solver.check() is None
        assert solver.model() == {}


class TestSolveFormula:
    """``solve_formula``: budget outcomes and the ``solver.solve`` span."""

    # UNSAT only after real CDCL conflicts: no clause is unit before the
    # first decision.
    a, b = bool_var("a"), bool_var("b")
    FOUR_CLAUSE_UNSAT = and_(or_(a, b), or_(a, not_(b)), or_(not_(a), b), or_(not_(a), not_(b)))

    @pytest.mark.parametrize(
        "budget, verdict, reason",
        [
            ({}, UNSAT_RES, ""),
            ({"max_conflicts": 1}, UNKNOWN, "conflicts"),
            ({"timeout": 0.0}, UNKNOWN, "deadline"),
        ],
    )
    def test_budget_outcomes(self, budget, verdict, reason):
        got, ints, bools, _seconds, why = solve_formula(self.FOUR_CLAUSE_UNSAT, **budget)
        assert (got, why) == (verdict, reason)
        assert ints == {} and bools == {}

    def test_solve_span_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("solver.query") as query:
            verdict, _ints, bools, _seconds, reason = solve_formula(
                or_(self.a, self.b), tracer=tracer
            )
        assert (verdict, reason) == (SAT, "")
        assert bools
        (solve,) = tracer.spans_named("solver.solve")
        assert solve.parent_id == query.span_id
        assert solve.attrs["verdict"] == SAT
        assert "unknown_reason" not in solve.attrs
        assert "sat_conflicts" in solve.attrs
