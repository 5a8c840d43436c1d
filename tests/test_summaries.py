"""The per-function summary layer (:mod:`repro.vfg.summaries`).

Covers the exactness contract (identical bug keys with and without the
summary layer), the summary content (edge spans, and the site indexes
interference reads), a re-run after a one-function edit, and
degradation (a crashing summaries pass loses no findings).  The
summary-free reference is reached the same way: by crashing the
summaries pass.
"""

import pytest

from repro import AnalysisConfig, Canary
from repro.detection.search import PathSearcher
from repro.testing import faults
from repro.testing.faults import FaultPlan, inject
from repro.vfg.summaries import FunctionVFSummary, compute_summaries

from fuzz_gen import scaled_program
from test_corpus import CORPUS_FILES, _parse_directives

SUBJECT = """
void helper(int** s, int* p) { *s = p; }
void worker(int** s) { int* b = malloc(); helper(s, b); free(b); }
void main() {
    int** slot = malloc();
    int* init = malloc();
    *slot = init;
    fork(t, worker, slot);
    int* v = *slot;
    print(*v);
}
"""

SUBJECT_EDITED = SUBJECT.replace("print(*v);", "print(*v);\n    int z = 1 + 2;")

SCALED = scaled_program(n_groups=6, helpers_per_group=3)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.clear()


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _run(text, **overrides):
    return Canary(AnalysisConfig(**overrides)).analyze_source(text, keep_bundle=True)


def _run_without_summaries(text, **overrides):
    """The reference run: the summaries pass crashes, the rest runs."""
    with inject(FaultPlan.make(crash=["pass:summaries"])):
        return _run(text, **overrides)


class TestExactness:
    def test_vfg_summary_identical_on_off(self):
        on = _run(SUBJECT)
        off = _run_without_summaries(SUBJECT)
        assert _keys(on) == _keys(off)
        assert on.vfg_summary == off.vfg_summary
        assert off.bundle.summary_index is None
        assert on.bundle.summary_index is not None
        # Detection walks the VFG itself on both paths: there is no
        # second adjacency view to diverge from it.
        for report in (on, off):
            assert PathSearcher(report.bundle).graph is report.bundle.vfg

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_corpus_keys_equal_on_off(self, path):
        text = path.read_text()
        expects, checkers, config = _parse_directives(text)
        base = dict(config, checkers=checkers)
        on = Canary(AnalysisConfig(**base)).analyze_source(text)
        with inject(FaultPlan.make(crash=["pass:summaries"])):
            off = Canary(AnalysisConfig(**base)).analyze_source(text, keep_bundle=True)
        assert off.bundle.summary_index is None
        assert _keys(on) == _keys(off)


    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(6, 3), (10, 2)], ids=["6x3", "10x2"])
    def test_scaled_subject_equal_on_off(self, shape, seed):
        # Many functions and mixed escape routes (fork argument versus a
        # store inside a helper): the result must match a run without
        # summaries.
        n_groups, helpers = shape
        text = scaled_program(seed=seed, n_groups=n_groups, helpers_per_group=helpers)
        ref = _run_without_summaries(text)
        rep = _run(text)
        assert _keys(rep) == _keys(ref)
        assert len(_keys(rep)) == 2  # the generator's deterministic bugs
        assert rep.vfg_summary == ref.vfg_summary
        snap = rep.metrics.snapshot()
        assert snap["summary.functions"] == len(rep.bundle.dataflow.function_extents)


class TestArtifactRoundTrip:
    def test_incremental_rerun_matches_cold(self):
        canary = Canary(AnalysisConfig())
        first = canary.analyze_source(SUBJECT, filename="s.mcc")
        second = canary.analyze_source(SUBJECT_EDITED, filename="s.mcc")
        assert second.metrics.snapshot()["summary.functions"] == 3
        cold = _run(SUBJECT_EDITED)
        assert _keys(second) == _keys(cold) == _keys(first)
        assert second.vfg_summary == cold.vfg_summary

    def test_summary_artifact_content(self):
        report = _run(SUBJECT)
        index = report.bundle.summary_index
        summary = index.summaries["worker"]
        assert isinstance(summary, FunctionVFSummary)
        start, end = summary.edge_span
        assert end > start
        # The site positions point back into the global site lists,
        # ascending, and interference reads the pass's indexes.
        dataflow = report.bundle.dataflow
        interference = report.bundle.interference
        assert interference._ptr_stores is index.ptr_stores
        assert interference._ptr_loads is index.ptr_loads
        for sites, positions_of in (
            (dataflow.all_stores, index.ptr_stores),
            (dataflow.all_loads, index.ptr_loads),
        ):
            assert positions_of
            for var, positions in positions_of.items():
                assert positions == sorted(positions)
                assert all(sites[pos].pointer is var for pos in positions)

    def test_compute_summaries_direct(self):
        report = _run(SUBJECT)
        dataflow = report.bundle.dataflow
        index = compute_summaries(dataflow)
        assert set(index.summaries) == {"helper", "worker", "main"}
        total_span = sum(s.num_edges for s in index.summaries.values())
        # Every dataflow edge is owned by exactly one function span; the
        # difference to num_edges is the interference overlay.
        assert total_span <= dataflow.vfg.num_edges


class TestDegradation:
    def test_crashing_summaries_pass_keeps_findings(self):
        with inject(FaultPlan.make(crash=["pass:summaries"])):
            rep = _run(SUBJECT)
        # Interference then builds the site indexes itself: losing the
        # layer degrades nothing, least of all to an empty report.
        assert len(_keys(rep)) == 1
        assert rep.bundle.summary_index is None
        assert rep.bundle.interference._ptr_stores
        assert rep.bundle.interference._ptr_loads
        failed = [r for r in rep.pass_statistics if r["status"] == "failed"]
        assert [r["name"] for r in failed] == ["summaries"]
        assert any("summary layer" in w for w in rep.degradation_warnings)
        assert _keys(rep) == _keys(_run(SUBJECT))


class TestMetricsAndObservability:
    def test_interference_convergence_metrics(self):
        rep = _run(SCALED)
        snap = rep.metrics.snapshot()
        assert snap["interference.rounds"] == rep.vfg_summary["fixpoint_rounds"]
        assert (
            snap["interference.interference_edges"]
            == rep.vfg_summary["interference_edges"]
        )
        assert snap["interference.edges_added"] >= snap["interference.interference_edges"]
        assert snap["interference.escaped_objects"] == rep.vfg_summary["escaped_objects"]
        assert "interference.widenings" in snap

    def test_metrics_present_without_summaries(self):
        rep = _run_without_summaries(SUBJECT)
        snap = rep.metrics.snapshot()
        assert "interference.rounds" in snap
        assert "summary.functions" not in snap

    def test_summaries_pass_row_present(self):
        rep = _run(SUBJECT)
        rows = {r["name"]: r for r in rep.pass_statistics}
        assert rows["summaries"]["status"] == "run"
        assert "3 summaries" in rows["summaries"]["detail"]
