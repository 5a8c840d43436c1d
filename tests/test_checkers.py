"""End-to-end checker tests: the paper's bug classes on small programs."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro import AnalysisConfig, Canary
from repro.checkers.uaf import UseAfterFreeChecker

from programs import (
    DOUBLE_FREE,
    FIG2_BUGGY,
    FIG2_BUG_FREE,
    JOIN_PROTECTED,
    NULL_SHARED,
    SIMPLE_UAF,
    TAINT_LEAK,
    THROUGH_CALL,
    USE_BEFORE_FORK,
)


def analyze(src, **cfg):
    config = AnalysisConfig(**cfg) if cfg else AnalysisConfig()
    return Canary(config).analyze_source(src)


class TestUseAfterFree:
    def test_fig2_bug_free_no_report(self):
        # The paper's headline example: contradictory guards, no report.
        report = analyze(FIG2_BUG_FREE)
        assert report.num_reports == 0

    def test_fig2_buggy_reports(self):
        report = analyze(FIG2_BUGGY)
        assert report.num_reports == 1
        bug = report.bugs[0]
        assert bug.kind == "use-after-free"
        assert bug.inter_thread

    def test_simple_uaf(self):
        report = analyze(SIMPLE_UAF)
        assert report.num_reports >= 1
        assert all(b.kind == "use-after-free" for b in report.bugs)

    def test_join_protected_no_report(self):
        report = analyze(JOIN_PROTECTED)
        assert report.num_reports == 0

    def test_use_before_fork_no_report(self):
        # The dereference precedes the fork; the free cannot precede it.
        report = analyze(USE_BEFORE_FORK)
        assert report.num_reports == 0

    def test_uaf_through_calls(self):
        report = analyze(THROUGH_CALL)
        assert report.num_reports >= 1

    def test_witness_order_is_consistent(self):
        report = analyze(SIMPLE_UAF)
        bug = report.bugs[0]
        if bug.witness_order:
            free_o = bug.witness_order.get(f"O{bug.source.label}")
            sink_o = bug.witness_order.get(f"O{bug.sink.label}")
            if free_o is not None and sink_o is not None:
                assert free_o < sink_o

    def test_report_describes_path(self):
        report = analyze(SIMPLE_UAF)
        text = report.bugs[0].describe()
        assert "use-after-free" in text
        assert "free" in text

    def test_ordered_free_then_use_found(self):
        # Inter-thread UAF whose endpoints are *ordered* by a join:
        # the free and the use never run concurrently, yet the bug is
        # real (free happens-before use).  MHP-based admission would
        # miss it; thread-crossing admission plus O_free < O_use finds it.
        src = """
        void main() {
            int** x = malloc();
            int* a = malloc();
            *x = a;
            fork(t, worker, x);
            join(t);
            int* c = *x;
            print(*c);
        }
        void worker(int** y) {
            int* old = *y;
            free(old);
        }
        """
        report = analyze(src)
        assert report.num_reports == 1
        assert report.bugs[0].inter_thread

    def test_intra_thread_suppressed_by_default(self):
        # A purely sequential UAF is not an *inter-thread* bug.
        report = analyze(
            """
            void main() {
                int* p = malloc();
                free(p);
                print(*p);
            }
            """
        )
        assert report.num_reports == 0

    def test_intra_thread_found_when_enabled(self):
        report = analyze(
            """
            void main() {
                int* p = malloc();
                free(p);
                print(*p);
            }
            """,
            inter_thread_only=False,
        )
        assert report.num_reports == 1


class TestDoubleFree:
    def test_double_free_across_threads(self):
        report = analyze(DOUBLE_FREE, checkers=("double-free",))
        assert report.num_reports >= 1
        assert report.bugs[0].kind == "double-free"

    def test_single_free_no_report(self):
        report = analyze(SIMPLE_UAF, checkers=("double-free",))
        assert report.num_reports == 0

    def test_pair_reported_once(self):
        report = analyze(DOUBLE_FREE, checkers=("double-free",))
        pairs = {
            tuple(sorted((b.source.label, b.sink.label))) for b in report.bugs
        }
        assert len(pairs) == len(report.bugs)


class TestNullDeref:
    def test_null_through_shared_memory(self):
        report = analyze(NULL_SHARED, checkers=("null-deref",))
        assert report.num_reports >= 1
        assert report.bugs[0].kind == "null-deref"

    def test_no_null_no_report(self):
        report = analyze(SIMPLE_UAF, checkers=("null-deref",))
        assert report.num_reports == 0

    def test_guarded_null_not_reported(self):
        # null is stored under theta, deref under !theta: infeasible.
        src = """
        extern int theta;
        void main() {
            int** x = malloc();
            int* a = malloc();
            *x = a;
            fork(t, nuller, x);
            if (!theta) {
                int* c = *x;
                *c = 5;
            }
        }
        void nuller(int** y) {
            if (theta) { *y = null; }
        }
        """
        # Wait: guards theta (store null) and !theta (deref) contradict.
        report = analyze(src, checkers=("null-deref",))
        assert report.num_reports == 0


class TestTaintLeak:
    def test_leak_through_shared_memory(self):
        report = analyze(TAINT_LEAK, checkers=("info-leak",))
        assert report.num_reports >= 1
        assert report.bugs[0].kind == "info-leak"

    def test_no_source_no_report(self):
        report = analyze(SIMPLE_UAF, checkers=("info-leak",))
        assert report.num_reports == 0

    def test_sanitized_flow_not_tracked(self):
        # value never reaches the sink
        src = """
        void main() {
            int* secret = taint_source();
            int* benign = malloc();
            taint_sink(benign);
        }
        """
        report = analyze(src, checkers=("info-leak",))
        assert report.num_reports == 0


class TestMultipleCheckers:
    def test_all_checkers_together(self):
        report = analyze(
            DOUBLE_FREE,
            checkers=("use-after-free", "double-free", "null-deref", "info-leak"),
        )
        kinds = {b.kind for b in report.bugs}
        assert "double-free" in kinds

    def test_report_summary(self):
        report = analyze(SIMPLE_UAF)
        text = report.describe()
        assert "report" in text
        assert report.vfg_summary["threads"] == 2
        assert "vfg" in report.timings


class TestAblations:
    def test_no_order_constraints_more_reports(self):
        # Without Φ_po/Φ_ls the join-protected program is (wrongly) flagged.
        precise = analyze(JOIN_PROTECTED)
        sloppy = analyze(JOIN_PROTECTED, order_constraints=False, use_mhp=False)
        assert precise.num_reports == 0
        assert sloppy.num_reports >= precise.num_reports

    def test_no_guard_pruning_same_verdict(self):
        # Pruning is an optimization: verdicts must not change.
        a = analyze(FIG2_BUG_FREE, prune_guards=True)
        b = analyze(FIG2_BUG_FREE, prune_guards=False)
        assert a.num_reports == b.num_reports == 0
        c = analyze(FIG2_BUGGY, prune_guards=False)
        assert c.num_reports == 1


CORPUS = pathlib.Path(__file__).parent / "corpus"
REPO_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: the corpus programs whose frees reach a shared object from two threads
FREE_ORDER_FILES = (
    "doublefree_cross_thread",
    "doublefree_join_ordered",
    "mixed_all_checkers",
)

#: analyses the ``FREE_ORDER_FILES`` under every memory model after
#: allocating and keeping ``argv[2]`` memory objects, then prints the
#: free-source order and every report's witness as JSON
WITNESS_DRIVER = textwrap.dedent(
    """
    import json, sys
    from repro.ir.values import MemObject
    ballast = [MemObject(f"b{i}", "heap") for i in range(int(sys.argv[2]))]
    from repro import AnalysisConfig, Canary
    from repro.checkers.uaf import UseAfterFreeChecker
    sys.path.insert(0, sys.argv[1])
    from test_corpus import _parse_directives

    out = {}
    for name in sys.argv[3:]:
        text = open(f"{sys.argv[1]}/corpus/{name}.mcc").read()
        _expects, checkers, overrides = _parse_directives(text)
        for model in ("sc", "tso", "pso"):
            config = AnalysisConfig(
                checkers=checkers, **{**overrides, "memory_model": model}
            )
            report = Canary(config).analyze_source(text, filename=name, keep_bundle=True)
            sources = UseAfterFreeChecker(report.bundle).free_sources()
            out[f"{name}/{model}"] = {
                "sources": [[inst.label, repr(node)] for node, inst, _ in sources],
                "bugs": [
                    [str(b.key), b.describe(), sorted(b.witness_order.items()),
                     repr(sorted(b.witness_env.items()))]
                    for b in report.bugs
                ],
            }
    print(json.dumps(out, sort_keys=True))
    """
)


class TestFreeSourceOrder:
    """UAF and double-free enumerate freed objects by name, not by
    address: ``MemObject`` hashes by identity, so a points-to set's own
    iteration order follows the allocation history of the process."""

    def test_free_sources_are_sorted_per_statement(self):
        text = (CORPUS / "mixed_all_checkers.mcc").read_text()
        report = Canary(AnalysisConfig(use_cache=False)).analyze_source(text, keep_bundle=True)
        objects = {}
        for node, inst, _alias in UseAfterFreeChecker(report.bundle).free_sources():
            objects.setdefault(inst.label, []).append(node.obj)
        assert max(len(objs) for objs in objects.values()) == 2
        for objs in objects.values():
            assert objs == sorted(objs, key=lambda o: (o.name, o.kind, o.context))

    def test_witnesses_identical_across_allocation_histories(self):
        tests_dir = str(pathlib.Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)

        def run(ballast):
            return subprocess.run(
                [sys.executable, "-c", WITNESS_DRIVER, tests_dir, str(ballast),
                 *FREE_ORDER_FILES],
                capture_output=True, text=True, env=env, check=True,
            ).stdout

        fresh, ballasted = run(0), run(3001)
        assert json.loads(fresh)["mixed_all_checkers/sc"]["bugs"]
        assert fresh == ballasted
