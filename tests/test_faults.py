"""Deterministic fault injection: every promised degradation path.

The resource-governance layer claims that a crashing pass, a stalled
solver query, or an expired wall budget degrades a single report (with the degradation recorded) instead of taking down the
run.  Each class here exercises one of those paths through the armed
fault points in :mod:`repro.testing.faults`; the seed-matrix class
mirrors the CI ``CANARY_FAULT_SEED`` sweep.
"""

import time

import pytest

from repro import AnalysisConfig, Canary
from repro.checkers import report_to_dict
from repro.frontend import FrontendError
from repro.testing import faults
from repro.testing.faults import (
    CRASHABLE_POINTS,
    FaultError,
    FaultPlan,
    fault_point,
    inject,
    plan_from_seed,
    seed_from_env,
)

from programs import SIMPLE_UAF
from test_corpus import CORPUS_FILES, _parse_directives


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.clear()


def _fresh_canary(**overrides):
    return Canary(AnalysisConfig(**overrides))


class TestFaultHarness:
    def test_inject_arms_and_always_disarms(self):
        plan = FaultPlan.make(crash=["pass:verify"])
        with pytest.raises(FaultError):
            with inject(plan):
                fault_point("pass:verify")
        fault_point("pass:verify")  # disarmed even after a raising body

    def test_unarmed_point_is_a_noop(self):
        with inject(FaultPlan.make(crash=["pass:verify"])):
            fault_point("pass:pointer")  # different point: no effect
        fault_point("pass:verify")  # disarmed: no effect

    def test_crash_point_raises_and_counts(self):
        with inject(FaultPlan.make(crash=["pass:verify"])):
            with pytest.raises(FaultError):
                fault_point("pass:verify")
            with pytest.raises(FaultError):
                fault_point("pass:verify")
            assert faults.fired("pass:verify") == 2

    def test_stall_point_sleeps(self):
        with inject(FaultPlan.make(stall=["solver:solve"], stall_seconds=0.05)):
            t0 = time.perf_counter()
            fault_point("solver:solve")
            assert time.perf_counter() - t0 >= 0.05

    def test_plan_from_seed_is_deterministic(self):
        assert plan_from_seed(0) == FaultPlan()
        assert plan_from_seed(-3) == FaultPlan()
        for seed in range(1, 14):
            plan = plan_from_seed(seed)
            assert plan == plan_from_seed(seed)
            assert plan.crash == {CRASHABLE_POINTS[(seed - 1) % len(CRASHABLE_POINTS)]}
            if seed % 3 == 0:
                assert plan.stall == {"solver:solve"}
            else:
                assert plan.stall == frozenset()

    def test_seed_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.SEED_ENV_VAR, raising=False)
        assert seed_from_env() == 0
        monkeypatch.setenv(faults.SEED_ENV_VAR, "7")
        assert seed_from_env() == 7
        monkeypatch.setenv(faults.SEED_ENV_VAR, "banana")
        assert seed_from_env(default=2) == 2


class TestPassCrashDegradation:
    @pytest.mark.parametrize("point", CRASHABLE_POINTS)
    def test_crashing_pass_degrades_not_raises(self, point):
        with inject(FaultPlan.make(crash=[point])):
            report = _fresh_canary().analyze_source(SIMPLE_UAF)
        assert report.degradation_warnings, point
        failed = [r for r in report.pass_statistics if r["status"] == "failed"]
        assert failed and failed[0]["name"] == point.split("pass:", 1)[1], point
        if point == "pass:verify":
            # Verification is advisory: the analysis itself still runs.
            assert report.num_reports >= 1
        else:
            assert report.num_reports == 0

    @pytest.mark.parametrize("point", ["pass:parse", "pass:lower"])
    def test_frontend_crash_yields_empty_degraded_report(self, point):
        with inject(FaultPlan.make(crash=[point])):
            report = _fresh_canary().analyze_source(SIMPLE_UAF)
        assert report.num_reports == 0
        assert any("frontend" in w for w in report.degradation_warnings)

    def test_malformed_input_still_raises_frontend_error(self):
        # FrontendError is the caller's problem, never degradation.
        with pytest.raises(FrontendError):
            _fresh_canary().analyze_source("int main( {{{")

    def test_dataflow_crash_degrades(self):
        with inject(FaultPlan.make(crash=["pass:dataflow"])):
            report = _fresh_canary().analyze_source(SIMPLE_UAF)
        assert report.num_reports == 0
        assert any("dataflow" in w for w in report.degradation_warnings)

    def test_crashing_checker_is_isolated_from_others(self):
        with inject(FaultPlan.make(crash=["pass:detect:use-after-free"])):
            report = _fresh_canary(
                checkers=("use-after-free", "double-free")
            ).analyze_source(SIMPLE_UAF)
        assert "double-free" in report.checker_statistics
        assert "use-after-free" not in report.checker_statistics
        assert any("use-after-free" in w for w in report.degradation_warnings)

    def test_degraded_report_round_trips_as_json(self):
        with inject(FaultPlan.make(crash=["pass:pointer"])):
            report = _fresh_canary().analyze_source(SIMPLE_UAF)
        payload = report_to_dict(report)
        assert payload["degradation_warnings"] == report.degradation_warnings
        assert payload["timed_out"] is False


class TestSolverDegradation:
    def test_stalled_queries_hit_deadline_and_degrade(self):
        plan = FaultPlan.make(stall=["solver:solve"], stall_seconds=0.05)
        with inject(plan):
            report = _fresh_canary(solver_timeout_seconds=0.01).analyze_source(
                SIMPLE_UAF
            )
        stats = report.solver_statistics
        assert stats["unknown_deadline"] >= 1
        assert report.num_reports == 0  # UNKNOWN is never reported as a bug
        assert any("deadline" in w for w in report.degradation_warnings)
        assert any("undecided" in w for w in report.degradation_warnings)

    def test_unknown_is_counted_undecided_never_suppressed(self):
        report = _fresh_canary(
            solver_timeout_seconds=1e-6, collect_suppressed=True
        ).analyze_source(SIMPLE_UAF)
        undecided = sum(
            s.get("undecided", 0) for s in report.checker_statistics.values()
        )
        assert undecided >= 1
        # An undecided candidate was never *refuted*, so it must not show
        # up among the suppressed (refutation-explained) candidates.
        assert report.suppressed == []

    def test_unknown_never_conflated_with_decided_verdicts(self):
        report = _fresh_canary(solver_timeout_seconds=1e-6).analyze_source(SIMPLE_UAF)
        s = report.solver_statistics
        assert s["unknown"] >= 1
        assert s["sat"] + s["unsat"] + s["unknown"] == s["queries"]
        assert s["unknown_deadline"] + s["unknown_conflicts"] <= s["unknown"]


class TestWallBudgetDegradation:
    def test_zero_budget_returns_partial_report_immediately(self):
        t0 = time.perf_counter()
        report = _fresh_canary(timeout_seconds=0.0).analyze_source(SIMPLE_UAF)
        assert time.perf_counter() - t0 < 5.0
        assert report.timed_out
        assert report.num_reports == 0
        assert report.pass_statistics is not None  # well-formed partial report

    def test_degraded_runs_are_never_memoized(self):
        canary = Canary(AnalysisConfig())
        with inject(FaultPlan.make(crash=["pass:verify"])):
            degraded = canary.analyze_source(SIMPLE_UAF)
        assert degraded.degradation_warnings
        clean = canary.analyze_source(SIMPLE_UAF)
        # The next run of the same driver is a clean run again.
        assert clean.degradation_warnings == []
        assert not clean.timed_out
        assert clean.num_reports >= 1

    def test_timed_out_flag_round_trips_as_json(self):
        report = _fresh_canary(timeout_seconds=0.0).analyze_source(SIMPLE_UAF)
        assert report_to_dict(report)["timed_out"] is True


class TestSeedMatrix:
    """The CI fault matrix in miniature: every seeded scenario must end
    in a completed report, degraded where (and only where) injected."""

    @pytest.mark.parametrize("seed", range(0, 7))
    def test_seeded_scenario_completes(self, seed):
        plan = plan_from_seed(seed, stall_seconds=0.01)
        with inject(plan):
            report = _fresh_canary(solver_timeout_seconds=0.5).analyze_source(
                SIMPLE_UAF
            )
        if seed == 0:
            assert report.degradation_warnings == []
            assert report.num_reports >= 1
        else:
            assert report.degradation_warnings


class TestConflictBudgetCorpusRegression:
    """Satellite of the UNKNOWN-propagation audit: a starved conflict
    budget may only *remove* reports (SAT→UNKNOWN), never invent or flip
    them — pinned across the whole regression corpus."""

    @staticmethod
    def _pair_keys(report):
        return {
            (b.kind, tuple(sorted((b.source.label, b.sink.label))))
            for b in report.bugs
        }

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_tiny_conflict_budget_only_removes_reports(self, path):
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        overrides.pop("solver_max_conflicts", None)
        full = Canary(AnalysisConfig(checkers=checkers, **overrides)).analyze_source(
            text, filename=path.name
        )
        tiny = Canary(
            AnalysisConfig(checkers=checkers, solver_max_conflicts=1, **overrides)
        ).analyze_source(text, filename=path.name)
        full_keys = self._pair_keys(full)
        tiny_keys = self._pair_keys(tiny)
        assert tiny_keys <= full_keys, path.name
        missing = full_keys - tiny_keys
        if missing:
            undecided = sum(
                s.get("undecided", 0) for s in tiny.checker_statistics.values()
            )
            assert undecided >= 1, path.name


class TestControlFlowNeverDegrades:
    """Hard budget expiry and interrupts must *propagate* out of the
    pipeline — the pass-isolation catches re-raise them instead of
    converting the unwind into degradation_warnings (the over-broad
    ``except Exception`` bug the daemon sweep fixed)."""

    CONTROL_POINTS = [
        "pass:verify",
        "pass:pointer",
        "pass:dataflow",
        "pass:interference",
        "pass:detect:use-after-free",
    ]

    @pytest.mark.parametrize("point", CONTROL_POINTS)
    def test_budget_exceeded_propagates(self, point):
        from repro.analysis.budget import BudgetExceededError

        with inject(FaultPlan.make(cancel=[point])):
            with pytest.raises(BudgetExceededError) as excinfo:
                _fresh_canary().analyze_source(SIMPLE_UAF)
        assert excinfo.value.where == point

    @pytest.mark.parametrize("point", ["pass:parse", "pass:lower"])
    def test_budget_exceeded_propagates_from_frontend(self, point):
        from repro.analysis.budget import BudgetExceededError

        with inject(FaultPlan.make(cancel=[point])):
            with pytest.raises(BudgetExceededError):
                _fresh_canary().analyze_source(SIMPLE_UAF)

    @pytest.mark.parametrize("point", ["pass:pointer", "pass:interference"])
    def test_keyboard_interrupt_propagates(self, point):
        with inject(FaultPlan.make(interrupt=[point])):
            with pytest.raises(KeyboardInterrupt):
                _fresh_canary().analyze_source(SIMPLE_UAF)

    def test_interrupt_and_cancel_are_armed_points(self):
        plan = FaultPlan.make(
            interrupt=["pass:pointer"], cancel=["pass:mhp"]
        )
        assert plan.points() == {"pass:pointer", "pass:mhp"}

    def test_ordinary_crash_still_degrades(self):
        # The re-raise is surgical: FaultError (a pass crash) keeps the
        # graceful-degradation contract.
        with inject(FaultPlan.make(crash=["pass:pointer"])):
            report = _fresh_canary().analyze_source(SIMPLE_UAF)
        assert report.degradation_warnings

    def test_cancelled_budget_reads_expired(self):
        from repro.analysis.budget import Budget

        budget = Budget(wall_seconds=None)
        assert not budget.expired()
        budget.cancel("client went away")
        assert budget.expired()
        assert budget.remaining() == 0.0
        assert budget.note_expired("checkpoint")
        assert budget.expirations == ["checkpoint"]
