"""Condition-variable signal→wait ordering: lowering, the
:class:`~repro.threads.condvars.CondVarAnalysis`, the Φ_po edges in
:meth:`OrderConstraintBuilder.signal_wait_order`, and the interpreter's
latch semantics.

The edge is a fence: it orders across *all* memory models, unlike the
store/load relaxations.
"""

import pytest

from repro import AnalysisConfig, Canary
from repro.frontend import parse_program
from repro.interp import Interpreter
from repro.ir import SignalInst, WaitInst
from repro.lowering import lower_program
from repro.pointer.steensgaard import steensgaard
from repro.threads.callgraph import build_thread_call_graph
from repro.threads.condvars import CondVarAnalysis
from repro.threads.mhp import MhpAnalysis

# The handoff: main must not free until the reader signals it is done.
HANDOFF_SAFE = """
void main() {
    int* p = malloc();
    *p = 5;
    fork(t, reader, p);
    wait(done);
    free(p);
}
void reader(int* p) {
    print(*p);
    signal(done);
}
"""

HANDOFF_MISSING_WAIT = """
void main() {
    int* p = malloc();
    *p = 5;
    fork(t, reader, p);
    free(p);
}
void reader(int* p) {
    print(*p);
    signal(done);
}
"""

RACE_ORDERED = """
void main() {
    int* c = malloc();
    *c = 1;
    fork(t, worker, c);
    wait(cv);
    int r = *c;
    print(r);
}
void worker(int* c) {
    *c = 7;
    signal(cv);
}
"""


def lower(src):
    return lower_program(parse_program(src))


def mhp_of(module):
    return MhpAnalysis(build_thread_call_graph(module, steensgaard(module)))


def run(src, checkers=("use-after-free",), **overrides):
    return Canary(AnalysisConfig(checkers=checkers, **overrides)).analyze_source(src)


class TestLowering:
    def test_intrinsics_lower_to_instructions(self):
        module = lower(HANDOFF_SAFE)
        waits = [
            i for i in module.all_instructions() if isinstance(i, WaitInst)
        ]
        signals = [
            i for i in module.all_instructions() if isinstance(i, SignalInst)
        ]
        assert [w.cond for w in waits] == ["done"]
        assert [s.cond for s in signals] == ["done"]

    def test_brief_rendering(self):
        module = lower(HANDOFF_SAFE)
        briefs = {
            i.brief()
            for i in module.all_instructions()
            if isinstance(i, (SignalInst, WaitInst))
        }
        assert briefs == {"signal done", "wait done"}


class TestCondVarAnalysis:
    def test_indexes_by_condition(self):
        module = lower(HANDOFF_SAFE)
        cv = CondVarAnalysis(module, mhp_of(module))
        assert cv.conditions == ("done",)
        assert cv.has_sync()
        assert len(cv.signals_of("done")) == 1
        assert len(cv.waits_of("done")) == 1

    def test_no_sync_without_condvars(self):
        module = lower("void main() { int* p = malloc(); free(p); }")
        cv = CondVarAnalysis(module, mhp_of(module))
        assert not cv.has_sync()
        assert cv.conditions == ()

    def test_ordered_before_through_handoff(self):
        module = lower(HANDOFF_SAFE)
        cv = CondVarAnalysis(module, mhp_of(module))
        from repro.ir import FreeInst, LoadInst

        use = [i for i in module.all_instructions() if isinstance(i, LoadInst)][0]
        free = [i for i in module.all_instructions() if isinstance(i, FreeInst)][0]
        assert cv.ordered_before(use, free)
        assert not cv.ordered_before(free, use)
        assert not cv.sync_free(use, free)


class TestCheckingWithSignalWait:
    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_handoff_uaf_silent_across_memory_models(self, model):
        # Signal→wait is a fence: the edge holds under every model.
        report = run(HANDOFF_SAFE, memory_model=model)
        assert report.num_reports == 0, model

    def test_missing_wait_fires(self):
        report = run(HANDOFF_MISSING_WAIT)
        assert report.num_reports >= 1

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_race_ordered_by_signal_wait(self, model):
        report = run(RACE_ORDERED, checkers=("data-race",), memory_model=model)
        assert report.num_reports == 0, model

    def test_race_fires_without_the_wait(self):
        src = RACE_ORDERED.replace("wait(cv);\n", "")
        report = run(src, checkers=("data-race",))
        assert report.num_reports >= 1

    def test_signal_before_wait_in_same_thread_deadlock_suppresses(self):
        # The only signal is ordered after the wait: nothing past the
        # wait can execute, so the would-be UAF is unreachable.
        src = """
        void main() {
            int* p = malloc();
            fork(t, reader, p);
            wait(done);
            signal(done);
            free(p);
        }
        void reader(int* p) {
            print(*p);
        }
        """
        report = run(src)
        assert report.num_reports == 0


class TestInterpreterLatch:
    def test_handoff_runs_to_completion(self):
        module = lower(HANDOFF_SAFE)
        result = Interpreter(module).run()
        assert result.completed
        assert result.output == ["int(5)"]
        assert result.violations == []

    def test_unsignalled_wait_blocks_without_hanging(self):
        module = lower("void main() { wait(never); print(1); }")
        result = Interpreter(module).run(max_steps=1000)
        assert not result.completed
        assert result.output == []

    def test_signal_is_a_latch_not_a_pulse(self):
        # Signal first, wait later: the wait must pass (latch semantics —
        # the static edge only requires O_signal < O_wait).
        module = lower(
            """
            void main() {
                signal(go);
                wait(go);
                print(7);
            }
            """
        )
        result = Interpreter(module).run()
        assert result.completed
        assert result.output == ["int(7)"]
