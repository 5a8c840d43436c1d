"""Realizability engine: term pickling, cube-and-conquer budget/witness
fixes and corpus equivalence, and the driver's solver surface."""

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
    cube_solve,
    eq,
    implies,
    int_const,
    int_var,
    le,
    lt,
    not_,
    or_,
    solve_formula,
    structural_key,
)
from repro.smt import portfolio
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
        assert structural_key(clone) == structural_key(formula)

    def test_structural_key_distinguishes_sorts(self):
        assert structural_key(bool_var("x")) != structural_key(int_var("x"))

    def test_structural_key_distinguishes_structure(self):
        x, y = int_var("x"), int_var("y")
        assert structural_key(lt(x, y)) != structural_key(lt(y, x))
        assert structural_key(le(x, y)) != structural_key(lt(x, y))

    def test_formula_solves_in_worker_process(self):
        x, y = int_var("x"), int_var("y")
        formula = and_(lt(x, y), lt(y, x + 3))
        local = solve_formula(formula)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(solve_formula, formula).result()
        assert local[0] == remote[0] == SAT
        # The worker's model satisfies the formula in the parent too.
        assert remote[1]["x"] < remote[1]["y"]


class TestCubeAndConquer:
    def test_conflict_budget_plumbed_to_cubes(self, monkeypatch):
        seen = []

        class Recording(Solver):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs.get("max_conflicts"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(portfolio, "Solver", Recording)
        g1, g2 = bool_var("g1"), bool_var("g2")
        x, y = int_var("x"), int_var("y")
        formula = and_(or_(g1, g2), implies(g1, lt(x, y)), implies(g2, lt(y, x)))
        assert cube_solve(formula, max_conflicts=1234) == SAT
        assert seen and all(budget == 1234 for budget in seen)

    def test_checker_budget_reaches_cube_solver(self, monkeypatch):
        seen = []

        class Recording(Solver):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs.get("max_conflicts"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(portfolio, "Solver", Recording)
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(
            bundle, use_cube_and_conquer=True, solver_max_conflicts=777
        )
        result = checker.check(interference_query(bundle))
        assert result.realizable
        assert seen and all(budget == 777 for budget in seen)

    def test_cube_sat_returns_witness(self):
        # Regression: cube mode used to discard the winning cube's model,
        # yielding reports with empty witness_order/witness_env.
        bundle = bundle_for(FIG2_BUGGY)
        cube = RealizabilityChecker(bundle, use_cube_and_conquer=True)
        plain = RealizabilityChecker(bundle)
        query = interference_query(bundle)
        cube_result = cube.check(query)
        plain_result = plain.check(query)
        assert cube_result.verdict == plain_result.verdict == SAT
        assert cube_result.witness_order
        assert all(k.startswith("O") for k in cube_result.witness_order)
        # The witness must satisfy the formula, like the monolithic path's.
        solver = Solver()
        solver.add(cube_result.formula)
        assert solver.check() == SAT

    def test_cube_bug_report_has_witness(self):
        config = AnalysisConfig(cube_and_conquer=True)
        report = Canary(config).analyze_source(SIMPLE_UAF)
        assert report.num_reports >= 1
        assert all(b.witness_order for b in report.bugs)

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_program_same_findings(self, path):
        # Cube-and-conquer is the one parallel solving mode left (paper
        # §5.2): splitting a query over cubes must decide it exactly as
        # the monolithic solver does, so the same paths are reported.
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        base = dict(checkers=checkers, use_cache=False, **overrides)
        plain = Canary(AnalysisConfig(**base)).analyze_source(text, filename=path.name)
        cube = Canary(AnalysisConfig(cube_and_conquer=True, **base)).analyze_source(
            text, filename=path.name
        )
        assert sorted((b.key, b.path) for b in cube.bugs) == sorted(
            (b.key, b.path) for b in plain.bugs
        ), path.name
        assert all(b.witness_order for b in cube.bugs), path.name


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
