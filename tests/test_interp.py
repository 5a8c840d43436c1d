"""Tests for the concrete interpreter and witness-replay confirmation."""

import pathlib

import pytest

from repro import AnalysisConfig, Canary
from repro.frontend import parse_program
from repro.interp import Environment, Interpreter, confirm_all, confirm_bug
from repro.lowering import lower_program

from programs import FIG2_BUGGY, SIMPLE_UAF, TAINT_LEAK


def lower(src):
    return lower_program(parse_program(src))


def run(src, externs=None, bools=None, schedule=None):
    interp = Interpreter(
        lower(src), Environment(externs=externs or {}, bools=bools or {})
    )
    return interp.run(schedule=schedule)


class TestSequentialExecution:
    def test_arithmetic_and_print(self):
        result = run(
            """
            void main() {
                int x = 2 + 3;
                int y = x * 4;
                print(y);
            }
            """
        )
        assert result.completed
        assert result.violations == []
        assert "int(20)" in result.output[0]

    def test_memory_round_trip(self):
        result = run(
            """
            void main() {
                int** box = malloc();
                int* v = malloc();
                *v = 7;
                *box = v;
                int* got = *box;
                print(*got);
            }
            """
        )
        assert result.violations == []
        assert "int(7)" in result.output[0]

    def test_sequential_uaf_detected(self):
        result = run(
            """
            void main() {
                int* p = malloc();
                free(p);
                print(*p);
            }
            """
        )
        assert len(result.violations_of("use-after-free")) == 1

    def test_double_free_detected(self):
        result = run("void main() { int* p = malloc(); free(p); free(p); }")
        assert len(result.violations_of("double-free")) == 1

    def test_null_deref_detected(self):
        result = run("void main() { int* p = null; *p = 1; }")
        assert len(result.violations_of("null-deref")) == 1

    def test_taint_flow_detected(self):
        result = run(
            "void main() { int* s = taint_source(); taint_sink(s); }"
        )
        assert len(result.violations_of("info-leak")) == 1

    def test_branch_follows_extern(self):
        src = """
        extern int flag;
        void main() {
            if (flag) { print(1); } else { print(2); }
        }
        """
        assert "int(1)" in run(src, externs={"flag": 1}).output[0]
        assert "int(2)" in run(src, externs={"flag": 0}).output[0]

    def test_calls_and_returns(self):
        result = run(
            """
            int add(int a, int b) { return a + b; }
            void main() { int r = add(40, 2); print(r); }
            """
        )
        assert "int(42)" in result.output[0]

    def test_recursion_bounded(self):
        result = run(
            """
            int loop(int n) { int r = loop(n); return r; }
            void main() { int x = loop(1); print(x); }
            """
        )
        assert result.completed  # depth cap prevents divergence

    def test_loop_executes_unrolled(self):
        result = run(
            """
            void main() {
                int i = 0;
                while (i < 2) {
                    print(i);
                    i = i + 1;
                }
            }
            """
        )
        # unrolled twice; conditions on concrete ints are honored
        assert len(result.output) == 2


class TestThreads:
    def test_fork_runs_child(self):
        result = run(
            """
            void child() { print(99); }
            void main() { fork(t, child); }
            """
        )
        assert result.completed
        assert any("99" in line for line in result.output)

    def test_join_waits(self):
        result = run(
            """
            int* g;
            void child() { g = malloc(); }
            void main() {
                fork(t, child);
                join(t);
                int* v = g;
                print(*v);
            }
            """
        )
        assert result.completed
        assert result.violations == []

    def test_schedule_controls_interleaving(self):
        module = lower(SIMPLE_UAF)
        # Unscheduled: program order is benign (main reads before child
        # stores), so no violation.
        benign = Interpreter(module).run()
        assert benign.violations_of("use-after-free") == []


class TestWitnessConfirmation:
    def test_simple_uaf_confirmed(self):
        report = Canary().analyze_source(SIMPLE_UAF, keep_bundle=True)
        results = confirm_all(report.bundle.module, report.bugs)
        assert results and all(r.confirmed for r in results)

    def test_fig2_buggy_confirmed(self):
        report = Canary().analyze_source(FIG2_BUGGY, keep_bundle=True)
        results = confirm_all(report.bundle.module, report.bugs)
        assert results and all(r.confirmed for r in results)

    def test_taint_leak_confirmed(self):
        report = Canary(
            AnalysisConfig(checkers=("info-leak",))
        ).analyze_source(TAINT_LEAK, keep_bundle=True)
        results = confirm_all(report.bundle.module, report.bugs)
        assert results and all(r.confirmed for r in results)

    def test_confirmation_describe(self):
        report = Canary().analyze_source(SIMPLE_UAF, keep_bundle=True)
        result = confirm_bug(report.bundle.module, report.bugs[0])
        assert "CONFIRMED" in result.describe()


_CORPUS = pathlib.Path(__file__).parent / "corpus"
_CONFIRMABLE = [
    "uaf_basic.mcc",
    "uaf_guarded_feasible.mcc",
    "uaf_ordered_real.mcc",
    "uaf_through_helpers.mcc",
    "uaf_global_channel.mcc",
    "uaf_two_workers.mcc",
    "doublefree_cross_thread.mcc",
    "nullderef_shared.mcc",
    "leak_shared_memory.mcc",
]


@pytest.mark.parametrize("name", _CONFIRMABLE)
def test_corpus_reports_replay(name):
    """Every static report on these corpus entries must replay to a real
    runtime violation of the same kind."""
    text = (_CORPUS / name).read_text()
    checkers = ("use-after-free", "double-free", "null-deref", "info-leak")
    report = Canary(AnalysisConfig(checkers=checkers)).analyze_source(text, keep_bundle=True)
    assert report.num_reports >= 1
    results = confirm_all(report.bundle.module, report.bugs)
    confirmed = [r for r in results if r.confirmed]
    assert len(confirmed) >= 1, "\n".join(r.describe() for r in results)
