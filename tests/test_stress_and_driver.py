"""Solver stress tests and analysis-driver behavior tests."""

import time

import pytest

from repro import AnalysisConfig, Canary
from repro.smt import (
    SAT,
    UNSAT,
    Solver,
    and_,
    bool_var,
    int_var,
    lt,
    not_,
    or_,
)

from programs import FIG2_BUGGY, SIMPLE_UAF


class TestSolverStress:
    def test_deeply_nested_formula(self):
        t = bool_var("x0")
        for i in range(1, 400):
            t = not_(or_(bool_var(f"x{i}"), not_(t)))
        s = Solver()
        s.add(t)
        assert s.check() in (SAT, UNSAT)  # must terminate, not crash

    def test_long_order_chain_sat(self):
        parts = [lt(int_var(f"O{i}"), int_var(f"O{i+1}")) for i in range(800)]
        s = Solver()
        s.add(and_(*parts))
        assert s.check() is SAT
        m = s.model()
        assert m.int_value(int_var("O0")) < m.int_value(int_var("O800"))

    def test_long_order_cycle_unsat(self):
        parts = [lt(int_var(f"O{i}"), int_var(f"O{i+1}")) for i in range(300)]
        parts.append(lt(int_var("O300"), int_var("O0")))
        s = Solver()
        s.add(and_(*parts))
        assert s.check() is UNSAT

    def test_many_independent_guards(self):
        parts = []
        for i in range(300):
            g = bool_var(f"g{i}")
            parts.append(or_(g, not_(g)))
        parts.append(bool_var("g0"))
        s = Solver()
        s.add(and_(*parts))
        assert s.check() is SAT

    def test_wide_disjunction_of_orders(self):
        x = [int_var(f"v{i}") for i in range(50)]
        f = or_(*[lt(x[i], x[(i + 1) % 50]) for i in range(50)])
        s = Solver()
        s.add(f)
        assert s.check() is SAT


class TestDriverBehavior:
    def test_timings_present(self):
        report = Canary().analyze_source(SIMPLE_UAF)
        assert set(report.timings) >= {"lowering", "vfg", "checking"}
        assert all(v >= 0 for v in report.timings.values())

    def test_solver_statistics_propagated(self):
        report = Canary().analyze_source(FIG2_BUGGY)
        assert report.solver_statistics["queries"] >= 1
        assert report.solver_statistics["sat"] >= 1

    def test_describe_mentions_counts(self):
        report = Canary().analyze_source(SIMPLE_UAF)
        text = report.describe()
        assert "1 report(s)" in text
        assert "interference edge" in text

    def test_bundle_exposed(self):
        report = Canary().analyze_source(SIMPLE_UAF, keep_bundle=True)
        assert report.bundle is not None
        assert report.bundle.vfg.num_edges > 0

    def test_reusable_canary_instance(self):
        canary = Canary()
        a = canary.analyze_source(SIMPLE_UAF)
        b = canary.analyze_source(FIG2_BUGGY)
        assert a.num_reports == 1 and b.num_reports == 1

    def test_unknown_checker_raises(self):
        # at construction, before any pass runs
        with pytest.raises(ValueError, match="unknown checker"):
            AnalysisConfig(checkers=("nonsense",))

    def test_config_immutable(self):
        config = AnalysisConfig()
        with pytest.raises(Exception):
            config.unroll_depth = 5  # frozen dataclass
