"""Tests for the benchmark substrate: generator, subjects, fits, metering."""

import pytest

from repro import Canary
from repro.bench import (
    PROFILES,
    SUBJECTS,
    ProjectSpec,
    generate_project,
    linear_fit,
    measure,
    prepare_subject,
    project_spec,
    run_subject,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.tables import render_fig7_time, render_fig8, render_table1
from repro.frontend import parse_program
from repro.lowering import lower_program


class TestGenerator:
    def test_deterministic(self):
        spec = ProjectSpec(name="x", target_lines=600, seed=11)
        a, _ = generate_project(spec)
        b, _ = generate_project(spec)
        assert a == b

    def test_target_size_respected(self):
        spec = ProjectSpec(name="x", target_lines=2000, seed=3)
        source, _ = generate_project(spec)
        lines = source.count("\n")
        assert 1400 <= lines <= 2800  # within ~30% of target

    def test_parses_and_lowers(self):
        spec = ProjectSpec(name="x", target_lines=800, real_bugs=2, seed=5)
        source, _ = generate_project(spec)
        module = lower_program(parse_program(source))
        assert module.size() > 100

    def test_ground_truth_classification(self):
        spec = ProjectSpec(
            name="x", target_lines=400, real_bugs=1, canary_fps=1, seed=5
        )
        _source, truth = generate_project(spec)
        assert truth.classify_free_site("real_uaf_worker_0") == "tp"
        assert truth.classify_free_site("cfp_uaf_worker_0") == "fp"
        assert truth.classify_free_site("anything_else") == "fp"

    def test_canary_matches_injection_counts(self):
        spec = ProjectSpec(
            name="x",
            target_lines=500,
            real_bugs=2,
            canary_fps=1,
            guard_baits=3,
            order_baits=3,
            seed=9,
        )
        source, truth = generate_project(spec)
        report = Canary().analyze_source(source, keep_bundle=True)
        tps = sum(
            1
            for b in report.bugs
            if truth.classify_free_site(report.bundle.module.function_of(b.source))
            == "tp"
        )
        assert tps == 2
        assert report.num_reports == 3  # 2 real + 1 canary-fp, baits pruned

    def test_zero_bug_project_clean(self):
        spec = ProjectSpec(
            name="x", target_lines=400, real_bugs=0, canary_fps=0, seed=2
        )
        source, _ = generate_project(spec)
        report = Canary().analyze_source(source)
        assert report.num_reports == 0


class TestSubjects:
    def test_twenty_subjects(self):
        assert len(SUBJECTS) == 20
        assert SUBJECTS[0].name == "lrzip"
        assert SUBJECTS[-1].name == "firefox"

    def test_table1_totals_encoded(self):
        assert sum(s.canary_reports for s in SUBJECTS) == 15
        assert sum(s.canary_fps for s in SUBJECTS) == 4

    def test_sizes_monotone_with_kloc(self):
        profile = PROFILES["quick"]
        sizes = [project_spec(s, profile).target_lines for s in SUBJECTS]
        klocs = [s.kloc for s in SUBJECTS]
        for (k1, l1), (k2, l2) in zip(zip(klocs, sizes), zip(klocs[1:], sizes[1:])):
            if k1 <= k2:
                assert l1 <= l2

    def test_prepare_subject_cached(self):
        profile = PROFILES["quick"]
        a = prepare_subject(SUBJECTS[0], profile)
        b = prepare_subject(SUBJECTS[0], profile)
        assert a[0] is b[0]


class TestCurveFit:
    def test_perfect_line(self):
        fit = linear_fit([1, 2, 3, 4], [2, 4, 6, 8])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line(self):
        fit = linear_fit([1, 2, 3, 4, 5], [2.1, 3.9, 6.2, 7.8, 10.1])
        assert fit.r_squared > 0.99
        assert 1.8 < fit.slope < 2.2

    def test_r_squared_degrades_with_noise(self):
        good = linear_fit([1, 2, 3, 4], [1, 2, 3, 4])
        bad = linear_fit([1, 2, 3, 4], [1, 4, 2, 3])
        assert good.r_squared > bad.r_squared

    def test_errors(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([1, 1], [1, 2])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_equation_string(self):
        fit = linear_fit([0, 1], [1, 3])
        text = fit.equation("KLoC", "time")
        assert "KLoC" in text and "R²" in text


class TestMetering:
    def test_measure_returns_result(self):
        m = measure(lambda: 41 + 1)
        assert m.result == 42
        assert m.seconds >= 0
        assert not m.timed_out

    def test_memory_tracked(self):
        m = measure(lambda: [0] * 200_000)
        assert m.peak_mb > 0.5

    def test_budget_flag(self):
        import time

        m = measure(lambda: time.sleep(0.02), budget_seconds=0.001)
        assert m.timed_out


class TestRunnerAndTables:
    @pytest.fixture(scope="class")
    def run(self):
        return run_subject(SUBJECTS[0], PROFILES["quick"])

    def test_all_tools_present(self, run):
        assert set(run.tools) == {"canary", "saber", "fsam"}

    def test_canary_matches_table1_row(self, run):
        canary = run.tools["canary"]
        assert canary.reports == SUBJECTS[0].canary_reports
        assert canary.false_positives == SUBJECTS[0].canary_fps

    def test_renderers(self, run):
        for renderer in (render_fig7_time, render_table1, render_fig8):
            text = renderer([run])
            assert "lrzip" in text


class TestCli:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--subjects", "nope"], "unknown subject(s): nope"),
            (["--subjects", "lrzip,nope"], "unknown subject(s): nope"),
            (["--tools", "canary,sabre"], "unknown tool(s): sabre"),
            (["--tools", ","], "--tools names no tool"),
        ],
    )
    def test_bad_names_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
