"""Property-based tests (hypothesis) for the core substrates.

Invariants covered:

* term constructors preserve boolean semantics and interning identity;
* the DPLL(T) solver agrees with brute-force enumeration on random
  propositional formulas;
* the semi-decision filter (`quick_unsat`) is *sound*: whatever it
  refutes, the full solver refutes;
* the difference-logic theory agrees with brute-force integer search on
  random bound systems;
* least-squares fitting recovers exact linear data;
* the workload generator always emits parseable, lowerable programs and
  Canary's verdict on them matches the injected ground truth.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt import (
    SAT,
    UNSAT,
    Solver,
    and_,
    bool_var,
    is_satisfiable,
    not_,
    or_,
    quick_unsat,
)
from repro.smt.terms import BoolTerm, TRUE, FALSE
from repro.smt.theory import DifferenceBound, DifferenceLogicSolver

# ---------------------------------------------------------------------------
# Random propositional formulas over a small variable pool


_VAR_NAMES = ["pa", "pb", "pc", "pd"]


def _formulas(depth: int = 3):
    leaves = st.sampled_from([bool_var(n) for n in _VAR_NAMES] + [TRUE, FALSE])

    def extend(children):
        return st.one_of(
            st.tuples(children).map(lambda t: not_(t[0])),
            st.tuples(children, children).map(lambda t: and_(t[0], t[1])),
            st.tuples(children, children).map(lambda t: or_(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _brute_force_sat(formula: BoolTerm) -> bool:
    for bits in itertools.product([False, True], repeat=len(_VAR_NAMES)):
        env = dict(zip(_VAR_NAMES, bits))
        if _eval(formula, env):
            return True
    return False


def _eval(t: BoolTerm, env) -> bool:
    from repro.smt.terms import And, BoolConst, BoolVar, Not, Or

    if isinstance(t, BoolConst):
        return t.value
    if isinstance(t, BoolVar):
        return env[t.name]
    if isinstance(t, Not):
        return not _eval(t.arg, env)
    if isinstance(t, And):
        return all(_eval(a, env) for a in t.args)
    if isinstance(t, Or):
        return any(_eval(a, env) for a in t.args)
    raise TypeError(t)


class TestSolverAgainstBruteForce:
    @given(_formulas())
    @settings(max_examples=150, deadline=None)
    def test_solver_matches_enumeration(self, formula):
        solver = Solver()
        solver.add(formula)
        assert (solver.check() is SAT) == _brute_force_sat(formula)

    @given(_formulas())
    @settings(max_examples=150, deadline=None)
    def test_model_satisfies_formula(self, formula):
        solver = Solver()
        solver.add(formula)
        if solver.check() is SAT:
            model = solver.model()
            value = model.eval(formula)
            # eval may be None for variables the model left unconstrained;
            # it must never be False.
            assert value is not False

    @given(_formulas())
    @settings(max_examples=150, deadline=None)
    def test_quick_unsat_sound(self, formula):
        if quick_unsat(formula):
            assert not _brute_force_sat(formula)

    @given(_formulas())
    @settings(max_examples=100, deadline=None)
    def test_negation_flips_tautologies(self, formula):
        # formula and ~formula cannot both be UNSAT
        assert is_satisfiable(formula) or is_satisfiable(not_(formula))

    @given(_formulas(), _formulas())
    @settings(max_examples=100, deadline=None)
    def test_conjunction_implies_both(self, f, g):
        if is_satisfiable(and_(f, g)):
            assert is_satisfiable(f)
            assert is_satisfiable(g)


class TestTermAlgebra:
    @given(_formulas())
    @settings(max_examples=100, deadline=None)
    def test_double_negation_identity(self, f):
        assert not_(not_(f)) is f

    @given(_formulas())
    @settings(max_examples=100, deadline=None)
    def test_interning(self, f):
        # reconstructing the same structure yields the same object
        assert and_(f, f) is f or isinstance(f, BoolTerm)
        assert and_(f, TRUE) is f
        assert or_(f, FALSE) is f

    @given(_formulas(), _formulas())
    @settings(max_examples=100, deadline=None)
    def test_and_commutative_semantics(self, f, g):
        assert _brute_force_sat(and_(f, g)) == _brute_force_sat(and_(g, f))


# ---------------------------------------------------------------------------
# Difference logic vs brute force


_bounds = st.lists(
    st.tuples(
        st.integers(0, 3),  # x index
        st.integers(0, 3),  # y index
        st.integers(-3, 3),  # c
    ),
    min_size=1,
    max_size=8,
)


def _brute_force_bounds(bounds) -> bool:
    names = sorted({b.x for b in bounds} | {b.y for b in bounds})
    window = range(-13, 14)
    for values in itertools.product(window, repeat=len(names)):
        env = dict(zip(names, values))
        if all(env[b.x] - env[b.y] <= b.c for b in bounds):
            return True
    return False


class TestDifferenceLogic:
    @given(_bounds)
    @settings(max_examples=80, deadline=None)
    def test_consistency_matches_brute_force(self, raw):
        bounds = [
            DifferenceBound(f"v{x}", f"v{y}", c) for x, y, c in raw if x != y
        ]
        if not bounds:
            return
        solver = DifferenceLogicSolver()
        for i, b in enumerate(bounds):
            solver.assert_bound(b, i)
        consistent = solver.check() is None
        assert consistent == _brute_force_bounds(bounds)

    @given(_bounds)
    @settings(max_examples=60, deadline=None)
    def test_model_satisfies_bounds(self, raw):
        bounds = [
            DifferenceBound(f"v{x}", f"v{y}", c) for x, y, c in raw if x != y
        ]
        if not bounds:
            return
        solver = DifferenceLogicSolver()
        for i, b in enumerate(bounds):
            solver.assert_bound(b, i)
        if solver.check() is None:
            model = solver.model()
            for b in bounds:
                assert model[b.x] - model[b.y] <= b.c

    @given(_bounds)
    @settings(max_examples=60, deadline=None)
    def test_core_is_inconsistent_subset(self, raw):
        bounds = [
            DifferenceBound(f"v{x}", f"v{y}", c) for x, y, c in raw if x != y
        ]
        if not bounds:
            return
        solver = DifferenceLogicSolver()
        for i, b in enumerate(bounds):
            solver.assert_bound(b, i)
        core = solver.check()
        if core is not None:
            subset = [bounds[i] for i in core]
            assert not _brute_force_bounds(subset)


# ---------------------------------------------------------------------------
# Curve fitting


class TestLinearFitProperties:
    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.lists(st.floats(-100, 100), min_size=3, max_size=12, unique=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_recovery(self, slope, intercept, xs):
        from hypothesis import assume

        from repro.bench import linear_fit

        assume(max(xs) - min(xs) > 1e-3)  # avoid numerically-degenerate fits
        ys = [slope * x + intercept for x in xs]
        fit = linear_fit(xs, ys)
        assert abs(fit.slope - slope) < 1e-6 + 1e-6 * abs(slope)
        assert fit.r_squared > 0.999999 or all(abs(y - ys[0]) < 1e-9 for y in ys)


# ---------------------------------------------------------------------------
# Workload generator end-to-end


class TestGeneratorProperties:
    @given(
        st.integers(0, 2),  # real bugs
        st.integers(0, 2),  # canary fps
        st.integers(0, 3),  # guard baits
        st.integers(0, 3),  # order baits
        st.integers(0, 1000),  # seed
    )
    @settings(max_examples=15, deadline=None)
    def test_canary_verdict_matches_ground_truth(
        self, real, cfp, gbait, obait, seed
    ):
        from repro import Canary
        from repro.bench import ProjectSpec, generate_project

        spec = ProjectSpec(
            name="prop",
            target_lines=260,
            real_bugs=real,
            canary_fps=cfp,
            guard_baits=gbait,
            order_baits=obait,
            seed=seed,
        )
        source, truth = generate_project(spec)
        report = Canary().analyze_source(source, keep_bundle=True)
        tps = sum(
            1
            for b in report.bugs
            if truth.classify_free_site(
                report.bundle.module.function_of(b.source)
            )
            == "tp"
        )
        assert tps == real  # every injected bug found, nothing more
        assert report.num_reports == real + cfp  # baits always pruned
