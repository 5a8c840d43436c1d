"""Unit tests for the run-level resource :class:`Budget` and its wiring
through :class:`AnalysisConfig` and the CLI."""

import pytest

from repro import AnalysisConfig, Canary
from repro.analysis import Budget
from repro.__main__ import main as cli_main

from programs import SIMPLE_UAF


class FakeClock:
    """A manually advanced monotonic clock for deterministic expiry."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudgetWallClock:
    def test_default_budget_is_unlimited(self):
        budget = Budget()
        assert budget.unlimited
        assert not budget.expired()
        assert budget.remaining() is None
        assert budget.query_timeout() is None
        assert budget.describe() == "unlimited"

    def test_elapsed_tracks_the_clock(self):
        clock = FakeClock()
        budget = Budget(clock=clock)
        clock.advance(2.5)
        assert budget.elapsed() == pytest.approx(2.5)

    def test_wall_deadline_expires(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        assert not budget.expired()
        assert budget.remaining() == pytest.approx(10.0)
        clock.advance(9.0)
        assert not budget.expired()
        clock.advance(1.0)
        assert budget.expired()

    def test_remaining_never_goes_negative(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock)
        clock.advance(5.0)
        assert budget.remaining() == 0.0

    def test_note_expired_records_observation_points(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock)
        assert not budget.note_expired("frontend")
        assert budget.expirations == []
        clock.advance(2.0)
        assert budget.note_expired("threads")
        assert budget.note_expired("detect:use-after-free")
        assert budget.expirations == ["threads", "detect:use-after-free"]

    def test_zero_wall_budget_expires_immediately(self):
        budget = Budget(wall_seconds=0.0)
        assert budget.expired()


class TestBudgetDerivedLimits:
    def test_soft_pass_budget_is_informational(self):
        budget = Budget(pass_seconds=0.5)
        assert not budget.over_pass_budget(0.4)
        assert budget.over_pass_budget(0.6)
        # A pass budget alone never expires the run.
        assert not budget.expired()

    def test_no_pass_budget_never_over(self):
        assert not Budget().over_pass_budget(1e9)

    def test_query_timeout_solver_limit_only(self):
        budget = Budget(solver_seconds=2.0)
        assert budget.query_timeout() == pytest.approx(2.0)

    def test_query_timeout_clipped_to_remaining_wall(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, solver_seconds=5.0, clock=clock)
        assert budget.query_timeout() == pytest.approx(5.0)
        clock.advance(8.0)  # 2s of wall left < 5s solver limit
        assert budget.query_timeout() == pytest.approx(2.0)

    def test_query_timeout_wall_only(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=4.0, clock=clock)
        assert budget.query_timeout() == pytest.approx(4.0)

    def test_query_timeout_floor_after_expiry(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, solver_seconds=5.0, clock=clock)
        clock.advance(2.0)
        # Expired runs still grant in-flight queries a tiny budget so they
        # return UNKNOWN quickly instead of thrashing on a zero deadline.
        assert budget.query_timeout() == pytest.approx(0.05)
        assert budget.query_timeout(floor=0.5) == pytest.approx(0.5)

    def test_describe_lists_the_configured_limits(self):
        text = Budget(wall_seconds=60.0, pass_seconds=5.0, solver_seconds=1.0).describe()
        assert "wall 60s" in text
        assert "pass 5s (soft)" in text
        assert "solver query 1s" in text


class TestConfigWiring:
    def test_from_config_maps_all_three_knobs(self):
        config = AnalysisConfig(
            timeout_seconds=30.0,
            pass_timeout_seconds=4.0,
            solver_timeout_seconds=0.5,
        )
        budget = Budget.from_config(config)
        assert budget.wall_seconds == 30.0
        assert budget.pass_seconds == 4.0
        assert budget.solver_seconds == 0.5

    def test_default_config_gives_unlimited_budget(self):
        assert Budget.from_config(AnalysisConfig()).unlimited

    def test_budget_knobs_are_semantic_for_caching(self):
        # A budget changes which verdicts are reachable (UNKNOWN vs.
        # decided), so flipping a knob must change the cache key.
        base = AnalysisConfig()
        assert base.cache_key() != AnalysisConfig(timeout_seconds=1.0).cache_key()
        assert base.cache_key() != AnalysisConfig(solver_timeout_seconds=1.0).cache_key()
        assert base.cache_key() != AnalysisConfig(pass_timeout_seconds=1.0).cache_key()

    @pytest.mark.parametrize(
        "knob",
        [
            "timeout_seconds",
            "solver_timeout_seconds",
            "pass_timeout_seconds",
            "solver_max_conflicts",
        ],
    )
    def test_negative_budget_rejected(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must not be negative"):
            AnalysisConfig(**{knob: -1})
        # 0 stays legal: "expire immediately"
        assert getattr(AnalysisConfig(**{knob: 0}), knob) == 0


class TestCliFlags:
    def _write(self, tmp_path, source):
        path = tmp_path / "input.mcc"
        path.write_text(source)
        return str(path)

    def test_timeout_flag_yields_partial_report_not_hang(self, tmp_path, capsys):
        path = self._write(tmp_path, SIMPLE_UAF)
        code = cli_main(["--timeout", "0", path])
        out = capsys.readouterr().out
        assert "timed out — partial results" in out
        assert code == 0  # no findings in the partial report

    @pytest.mark.parametrize("flag", ["--timeout", "--pass-timeout", "--solver-timeout"])
    def test_negative_budget_flag_exits_2(self, tmp_path, capsys, flag):
        path = self._write(tmp_path, SIMPLE_UAF)
        with pytest.raises(SystemExit) as exc:
            cli_main([flag, "-1", path])
        assert exc.value.code == 2
        assert "must not be negative" in capsys.readouterr().err

    def test_generous_budgets_do_not_change_findings(self, tmp_path, capsys):
        path = self._write(tmp_path, SIMPLE_UAF)
        code = cli_main(
            ["--timeout", "600", "--pass-timeout", "600", "--solver-timeout", "600", path]
        )
        out = capsys.readouterr().out
        assert code == 1  # findings present
        assert "timed out" not in out

    def test_solver_timeout_flag_reports_degradation(self, tmp_path, capsys):
        path = self._write(tmp_path, SIMPLE_UAF)
        cli_main(["--solver-timeout", "0.000001", path])
        err = capsys.readouterr().err
        assert "undecided" in err or "deadline" in err

    def test_timed_out_report_flagged_in_statistics(self):
        report = Canary(AnalysisConfig(timeout_seconds=0.0)).analyze_source(SIMPLE_UAF)
        assert report.timed_out
        assert "partial results" in report.describe_statistics()


class TestTimedOutFlags:
    """The explicit ``timed_out`` flags consumed by fsam and the bench
    runner (previously inferred from the wall clock alone)."""

    def _module(self):
        from repro.frontend import parse_program
        from repro.lowering import lower_program

        return lower_program(parse_program(SIMPLE_UAF))

    def test_flow_sensitive_result_carries_timed_out(self):
        import time

        from repro.pointer.flowsensitive import flow_sensitive_pointsto

        module = self._module()
        full = flow_sensitive_pointsto(module)
        assert not full.timed_out
        cut = flow_sensitive_pointsto(module, deadline=time.perf_counter() - 1.0)
        assert cut.timed_out

    def test_fsam_zero_budget_marks_timed_out(self):
        from repro.baselines import FsamBaseline

        result = FsamBaseline(time_budget=0.0).detect_uaf(self._module())
        assert result.timed_out
        assert result.reports == []

    def test_bench_runner_records_canary_timeout_as_na(self):
        from repro.bench.runner import run_subject
        from repro.bench.subjects import PROFILES, SUBJECTS

        run = run_subject(
            SUBJECTS[0],
            PROFILES["quick"],
            tools=("canary",),
            track_memory=False,
            canary_timeout_seconds=0.0,
        )
        tool = run.tools["canary"]
        assert tool.timed_out
        assert tool.seconds is None and tool.reports is None
