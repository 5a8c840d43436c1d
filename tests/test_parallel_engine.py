"""Realizability engine: term pickling, solver budgets and witnesses on
the one solving path, and the driver's solver surface."""

import copy
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import AnalysisConfig, Canary
from repro.detection import PathQuery, RealizabilityChecker, ValueFlowPath
from repro.frontend import parse_program
from repro.lowering import lower_program
from repro.smt import (
    FALSE,
    SAT,
    TRUE,
    Solver,
    and_,
    bool_var,
    eq,
    implies,
    int_const,
    int_var,
    le,
    lt,
    not_,
    or_,
    solve_formula,
)
from repro.smt import solver as solver_module
from repro.vfg import build_vfg

from programs import FIG2_BUGGY, SIMPLE_UAF
from test_corpus import CORPUS_FILES, _parse_directives


def bundle_for(src):
    return build_vfg(lower_program(parse_program(src)))


def interference_query(bundle):
    edge = bundle.vfg.interference_edges()[0]
    return PathQuery(
        path=ValueFlowPath(origin=edge.src, edges=[edge]),
        source_inst=None,
        sink_inst=None,
    )


def recording_solver(monkeypatch):
    """Make ``solve_formula`` build solvers that log their conflict budget."""
    seen = []

    class Recording(Solver):
        def __init__(self, *args, **kwargs):
            seen.append(kwargs.get("max_conflicts"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver_module, "Solver", Recording)
    return seen


class TestTermPickling:
    def test_round_trip_is_identity(self):
        x, y = int_var("x"), int_var("y")
        theta = bool_var("theta")
        samples = [
            TRUE,
            FALSE,
            theta,
            not_(theta),
            x,
            int_const(7),
            x + 3,
            x - y,
            lt(x, y),
            le(x, int_const(5)),
            eq(x, y),
            and_(theta, lt(x, y)),
            or_(theta, not_(bool_var("phi"))),
        ]
        for term in samples:
            assert pickle.loads(pickle.dumps(term)) is term

    def test_composite_formula_round_trip(self):
        g1, g2 = bool_var("g1"), bool_var("g2")
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        formula = and_(
            or_(g1, g2),
            implies(g1, and_(lt(x, y), lt(y, z))),
            implies(g2, le(z, x)),
        )
        clone = pickle.loads(pickle.dumps(formula))
        assert clone is formula
        assert copy.copy(formula) is formula
        assert copy.deepcopy([formula])[0] is formula

    def test_formula_solves_in_worker_process(self):
        x, y = int_var("x"), int_var("y")
        formula = and_(lt(x, y), lt(y, x + 3))
        local = solve_formula(formula)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(solve_formula, formula).result()
        assert local[0] == remote[0] == SAT
        # The worker's model satisfies the formula in the parent too.
        assert remote[1]["x"] < remote[1]["y"]


class TestSolvingPath:
    def test_conflict_budget_reaches_solver(self, monkeypatch):
        seen = recording_solver(monkeypatch)
        g1, g2 = bool_var("g1"), bool_var("g2")
        x, y = int_var("x"), int_var("y")
        formula = and_(or_(g1, g2), implies(g1, lt(x, y)), implies(g2, lt(y, x)))
        assert solve_formula(formula, max_conflicts=1234)[0] == SAT
        assert seen == [1234]

    def test_checker_budget_reaches_solver(self, monkeypatch):
        seen = recording_solver(monkeypatch)
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(bundle, solver_max_conflicts=777)
        result = checker.check(interference_query(bundle))
        assert result.realizable
        assert seen == [777]

    def test_sat_witness_satisfies_formula(self):
        bundle = bundle_for(FIG2_BUGGY)
        result = RealizabilityChecker(bundle).check(interference_query(bundle))
        assert result.verdict == SAT
        assert result.witness_order
        assert all(k.startswith("O") for k in result.witness_order)
        # Pinning the witness's order variables keeps the formula SAT.
        pinned = [eq(int_var(k), int_const(v)) for k, v in result.witness_order.items()]
        solver = Solver()
        solver.add(and_(result.formula, *pinned))
        assert solver.check() == SAT

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_program_bugs_carry_witness(self, path):
        # Every reported path comes with an order witness over both of its
        # endpoints.  Outside data races, whose accesses may run either
        # way round, the value flows from source to sink, so the source
        # runs strictly first.
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        config = AnalysisConfig(checkers=checkers, use_cache=False, **overrides)
        report = Canary(config).analyze_source(text, filename=path.name)
        for bug in report.bugs:
            order = bug.witness_order
            assert order and all(k.startswith("O") for k in order), bug.describe()
            source = order[f"O{bug.source.label}"]
            sink = order[f"O{bug.sink.label}"]
            if bug.kind != "data-race":
                assert source < sink, bug.describe()


class TestDriverSurface:
    def test_parse_time_recorded(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert report.timings["parse"] >= 0.0
        assert report.timings["solving"] >= 0.0

    def test_checker_statistics_surfaced(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert "use-after-free" in report.checker_statistics
        assert report.checker_statistics["use-after-free"]["reports"] == 1

    def test_describe_statistics(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        text = report.describe_statistics()
        assert "queries" in text and "cache" in text and "timings" in text
