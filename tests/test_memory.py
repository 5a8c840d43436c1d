"""Memory discipline of one analysis run.

* **Runs are acyclic.**  Everything a finished run allocated is freed by
  reference counting alone: with automatic collection off, dropping the
  report and calling ``gc.collect()`` finds nothing.  A back-pointer
  (a view pointing at the index that owns it) or a recursive nested
  closure would each keep a whole run alive until the next full
  collection, so a resident daemon would carry dead graphs around.
* **One collector policy.**  ``Canary.analyze_*`` turns automatic
  collection off (a gen-0 threshold of 0) while any run is in flight and
  gives the caller back its own thresholds when the last run exits,
  whatever way it exits.  That is safe only because runs are acyclic:
  a cycle a run made would stay in memory until the last run in flight
  ends, so the acyclicity checks also run the largest paper-profile
  subject the benchmark analyses (openssl) and the shapes of its scaled
  modules.
* **A run leaves only its findings alive.**  A default report holds no
  module or VFG and the run cache stores no module, so the analysis is
  freed as the run returns; ``keep_bundle=True`` is the one way to keep
  it.

Each acyclicity check runs the analysis once untimed first: importing a
module (and building its ``slots=True`` dataclasses) leaves one-off
garbage that is not the run's.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro import AnalysisConfig, Canary
from repro.analysis import driver, passes
from repro.analysis.budget import BudgetExceededError
from repro.bench.codegen import generate_project
from repro.bench.subjects import PROFILES, SUBJECTS, project_spec
from repro.checkers import ALL_CHECKERS
from repro.frontend import FrontendError
from repro.frontend.lexer import tokenize
from repro.lowering import lower_program
from repro.server import AnalysisService
from repro.testing.faults import FaultPlan, inject
from repro.vfg.dataflow import ContentEntry, DataDependenceAnalysis, FunctionSummary
from repro.vfg.graph import DefNode, NullNode, ObjNode, StoreNode, VFGEdge

from fuzz_gen import detection_scaled_program, scaled_program
from test_corpus import CORPUS_FILES, _parse_directives

ALL = tuple(sorted(ALL_CHECKERS))
MIXED = (CORPUS_FILES[0].parent / "mixed_all_checkers.mcc").read_text()

#: SC, TSO and PSO, plus lock modelling on top of SC
MODELS = [
    {"memory_model": "sc"},
    {"memory_model": "tso"},
    {"memory_model": "pso"},
    {"memory_model": "sc", "model_locks": True},
]


@contextmanager
def collection_disabled():
    """Whatever dies in here dies by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(run) -> int:
    """Objects ``gc.collect()`` frees after ``run()`` with automatic
    collection off — 0 when everything ``run`` dropped died by refcount."""
    gc.collect()
    with collection_disabled():
        run()
        return gc.collect()


def analyze_and_drop(canary: Canary, text: str, filename: str = "<input>"):
    def run():
        report = canary.analyze_source(text, filename=filename)
        assert report.bugs is not None
        del report

    return run


class TestRunsAreAcyclic:
    @pytest.mark.parametrize("name", ["redis", "openssl"])
    def test_paper_profile(self, name):
        subject = next(s for s in SUBJECTS if s.name == name)
        text, _truth = generate_project(project_spec(subject, PROFILES["paper"]))
        canary = Canary(AnalysisConfig(use_cache=False))
        run = analyze_and_drop(canary, text, f"{name}.mcc")
        run()
        assert cyclic_garbage(run) == 0

    @pytest.mark.parametrize(
        "text",
        [
            scaled_program(seed=0, n_groups=20, helpers_per_group=3),
            detection_scaled_program(n_threads=16, n_slots=2, pad_functions=32),
        ],
        ids=["scaled_program", "detection_scaled_program"],
    )
    def test_scaled_shapes(self, text):
        canary = Canary(AnalysisConfig(use_cache=False))
        run = analyze_and_drop(canary, text, "scaled.mcc")
        run()
        assert cyclic_garbage(run) == 0

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_file_every_checker_and_memory_model(self, path):
        text = path.read_text()
        _expects, _checkers, overrides = _parse_directives(text)
        for model in MODELS:
            config = AnalysisConfig(
                **{**overrides, **model, "checkers": ALL, "use_cache": False}
            )
            run = analyze_and_drop(Canary(config), text, path.name)
            run()
            assert cyclic_garbage(run) == 0, model

    def test_memory_run_cache_store_and_hit(self):
        text = (CORPUS_FILES[0].parent / "mixed_all_checkers.mcc").read_text()
        canary = Canary(AnalysisConfig(checkers=ALL))
        analyze_and_drop(canary, text, "warm-up.mcc")()
        # The miss stores the run's record; the hit rehydrates it.
        assert cyclic_garbage(analyze_and_drop(canary, text, "m.mcc")) == 0
        assert cyclic_garbage(analyze_and_drop(canary, text, "m.mcc")) == 0
        assert canary.store.statistics()["artifact_hits"] >= 1

    def test_failed_runs(self):
        text = (CORPUS_FILES[0].parent / "uaf_basic.mcc").read_text()
        canary = Canary(AnalysisConfig(use_cache=False))

        def malformed():
            with pytest.raises(FrontendError):
                canary.analyze_source("int main( {")

        def cancelled():
            with inject(FaultPlan.make(cancel=["pass:dataflow"])):
                with pytest.raises(BudgetExceededError):
                    canary.analyze_source(text)

        def crashed(site):
            # A pass the pipeline survives losing, or the frontend (an
            # empty degraded report).
            def run():
                with inject(FaultPlan.make(crash=[site])):
                    report = canary.analyze_source(text)
                assert report.degradation_warnings
                del report

            run.__name__ = site
            return run

        sites = ["pass:lower", "pass:verify", "pass:pointer", "pass:mhp",
                 "pass:dataflow", "pass:interference", "pass:detect:use-after-free"]
        for run in (malformed, cancelled, *map(crashed, sites)):
            run()
            assert cyclic_garbage(run) == 0, run.__name__

    def test_one_service_request(self):
        text = (CORPUS_FILES[0].parent / "mixed_all_checkers.mcc").read_text()
        service = AnalysisService(workers=1, max_reports=8)
        try:
            assert service.analyze(text, "warm-up.mcc").status == "done"

            def request():
                record = service.analyze(text + "\nvoid pad() { int p = 1; }\n", "m.mcc")
                assert record.status == "done"

            assert cyclic_garbage(request) == 0
        finally:
            service.shutdown()


# ----- the collector policy -------------------------------------------------

CUSTOM = (1234, 7, 9)
SMALL = "void main() { int* p = malloc(); free(p); }\n"


@contextmanager
def custom_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CUSTOM)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@pytest.fixture()
def seen_during_parse(monkeypatch):
    """The gc thresholds each run observes while it parses."""
    seen = []
    parse = passes.parse_program

    def recording(source, filename="<input>"):
        seen.append(gc.get_threshold())
        return parse(source, filename)

    monkeypatch.setattr(passes, "parse_program", recording)
    return seen


def collection_off(thresholds) -> bool:
    """Automatic collection is off exactly when the gen-0 threshold is 0."""
    return thresholds[0] == 0


class TestCollectorPolicy:
    def test_off_during_a_run_and_restored_after(self, seen_during_parse):
        with custom_thresholds():
            Canary(AnalysisConfig(use_cache=False)).analyze_source(SMALL)
            assert gc.get_threshold() == CUSTOM
        [during] = seen_during_parse
        assert collection_off(during)
        assert during[1:] == CUSTOM[1:]

    def test_restored_after_frontend_error(self, seen_during_parse):
        with custom_thresholds():
            with pytest.raises(FrontendError):
                Canary().analyze_source("int main( {")
            assert gc.get_threshold() == CUSTOM
        assert collection_off(seen_during_parse[0])

    def test_restored_after_budget_cancellation(self):
        with custom_thresholds():
            with inject(FaultPlan.make(cancel=["pass:dataflow"])):
                with pytest.raises(BudgetExceededError):
                    Canary(AnalysisConfig(use_cache=False)).analyze_source(SMALL)
            assert gc.get_threshold() == CUSTOM

    def test_every_entry_point(self):
        canary = Canary(AnalysisConfig(use_cache=False))
        ast = passes.parse_program(SMALL)
        module = lower_program(ast)
        with custom_thresholds():
            canary.analyze_ast(ast)
            assert gc.get_threshold() == CUSTOM
            canary.analyze_module(module)
            assert gc.get_threshold() == CUSTOM

    def test_service_requests_run_under_the_policy(self, seen_during_parse):
        service = AnalysisService(workers=1, max_reports=8)
        try:
            with custom_thresholds():
                assert service.analyze(SMALL, "s.mcc").status == "done"
                assert gc.get_threshold() == CUSTOM
        finally:
            service.shutdown()
        assert collection_off(seen_during_parse[0])

    def test_zero_threshold_keeps_collection_off(self, seen_during_parse):
        saved = gc.get_threshold()
        gc.set_threshold(0)
        try:
            Canary(AnalysisConfig(use_cache=False)).analyze_source(SMALL)
            assert gc.get_threshold()[0] == 0
        finally:
            gc.set_threshold(*saved)
        assert seen_during_parse[0][0] == 0

    def test_run_count_survives_contention(self):
        # More threads than cores entering and leaving at once: a lost
        # update to the in-flight count would leave collection off after
        # the last run or turn it back on while runs are still in flight.
        workers, rounds = 8, 300
        barrier = threading.Barrier(workers)
        broken = []

        def churn():
            barrier.wait()
            for _ in range(rounds):
                with driver.quiet_collector():
                    if not collection_off(gc.get_threshold()):
                        broken.append("restored while a run was in flight")

        threads = [threading.Thread(target=churn) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with custom_thresholds():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert gc.get_threshold() == CUSTOM
        finally:
            sys.setswitchinterval(interval)
        assert not broken
        assert driver._runs_in_flight == 0

    def test_overlapping_runs_restore_after_the_last_exits(self, monkeypatch):
        entered = {name: threading.Event() for name in ("a.mcc", "b.mcc")}
        release = {name: threading.Event() for name in ("a.mcc", "b.mcc")}
        parse = passes.parse_program

        def held(source, filename="<input>"):
            entered[filename].set()
            assert release[filename].wait(timeout=30)
            return parse(source, filename)

        monkeypatch.setattr(passes, "parse_program", held)
        canary = Canary(AnalysisConfig(use_cache=False))
        threads = {
            name: threading.Thread(
                target=canary.analyze_source, args=(SMALL,), kwargs={"filename": name}
            )
            for name in entered
        }
        with custom_thresholds():
            try:
                for name, thread in threads.items():
                    thread.start()
                    assert entered[name].wait(timeout=30)
                assert collection_off(gc.get_threshold())
                release["a.mcc"].set()
                threads["a.mcc"].join(timeout=30)
                assert not threads["a.mcc"].is_alive()
                # b is still in flight: collection stays off.
                assert collection_off(gc.get_threshold())
                release["b.mcc"].set()
                threads["b.mcc"].join(timeout=30)
                assert not threads["b.mcc"].is_alive()
                assert gc.get_threshold() == CUSTOM
            finally:
                for event in release.values():
                    event.set()
                for thread in threads.values():
                    thread.join(timeout=30)


# ----- what a run holds -------------------------------------------------------


def test_ast_is_freed_before_alg1(monkeypatch):
    # The IR shares only Locations with the AST, so the tree must be gone
    # (by refcount: collection is off) before the passes that follow
    # lowering start.
    programs, alive = [], []
    parse, run = passes.parse_program, DataDependenceAnalysis.run

    def parse_and_watch(source, filename="<input>"):
        program = parse(source, filename)
        programs.append(weakref.ref(program))
        return program

    def run_and_check(self):
        alive.append(programs[-1]() is not None)
        return run(self)

    monkeypatch.setattr(passes, "parse_program", parse_and_watch)
    monkeypatch.setattr(DataDependenceAnalysis, "run", run_and_check)
    with collection_disabled():
        Canary(AnalysisConfig(use_cache=False, checkers=ALL)).analyze_source(MIXED)
    assert alive == [False]


# ----- small per-fact records -----------------------------------------------


def test_per_fact_records_have_no_instance_dict():
    token = tokenize(SMALL)[0]
    for obj in (token, token.location):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    for cls in (DefNode, StoreNode, ObjNode, NullNode, VFGEdge, ContentEntry, FunctionSummary):
        assert "__slots__" in cls.__dict__, cls.__name__


# ----- what a finished run leaves behind ------------------------------------


@pytest.fixture()
def run_graphs(monkeypatch):
    """Weak references to each run's module and VFG, taken as Alg. 1
    starts."""
    refs = []
    run = DataDependenceAnalysis.run

    def run_and_watch(self):
        refs.append((weakref.ref(self.module), weakref.ref(self.vfg)))
        return run(self)

    monkeypatch.setattr(DataDependenceAnalysis, "run", run_and_watch)
    return refs


def findings(report):
    """What a report answers, as plain values that hold no instruction."""
    return (
        [(b.key, b.describe(), b.witness_order, b.witness_env) for b in report.bugs],
        [s.describe() for s in report.suppressed],
    )


class TestWhatARunLeaves:
    @pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "no-cache"])
    def test_report_holds_no_analysis_unless_asked(self, run_graphs, use_cache):
        canary = Canary(AnalysisConfig(checkers=ALL, use_cache=use_cache))
        with collection_disabled():
            report = canary.analyze_source(MIXED, "m.mcc")
            assert report.bugs and report.bundle is None
            [(module, vfg)] = run_graphs
            assert module() is None and vfg() is None
            # keep_bundle always runs the passes: a run-cache hit has no
            # bundle to give.
            kept = canary.analyze_source(MIXED, "m.mcc", keep_bundle=True)
            assert kept.passes_run()
            module, vfg = run_graphs[-1]
            assert module() is kept.bundle.module
            assert vfg() is kept.bundle.vfg
            assert findings(kept) == findings(report)

    def test_run_cache_hit_outlives_the_module(self, run_graphs):
        canary = Canary(AnalysisConfig(checkers=ALL, collect_suppressed=True))
        with collection_disabled():
            cold = canary.analyze_source(MIXED, "m.mcc")
            expected = findings(cold)
            del cold
            [(module, _vfg)] = run_graphs
            assert module() is None
            warm = canary.analyze_source(MIXED, "m.mcc")
        assert warm.passes_run() == []
        assert expected[0] and expected[1]
        assert findings(warm) == expected

    def test_openssl_leaves_a_small_fraction_of_its_analysis(self):
        # The paper-profile openssl subject: byte for byte the perfbench
        # table1 openssl input at seed 0.
        subject = next(s for s in SUBJECTS if s.name == "openssl")
        text, _truth = generate_project(project_spec(subject, PROFILES["paper"]))
        Canary(AnalysisConfig()).analyze_source(text, "warm-up.mcc")

        def left_behind(keep_bundle):
            gc.collect()
            before = len(gc.get_objects())
            report = Canary(AnalysisConfig()).analyze_source(
                text, "openssl.mcc", keep_bundle=keep_bundle
            )
            gc.collect()
            return len(gc.get_objects()) - before, report

        default, report = left_behind(False)
        kept, kept_report = left_behind(True)
        assert findings(report) == findings(kept_report)
        assert default < 0.05 * kept, (default, kept)
