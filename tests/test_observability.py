"""The unified observability layer: tracer, metrics, exporters, gates.

Covers the guarantees ``docs/architecture.md`` §12 documents:

* span nesting/ordering, and every ``solver.solve`` span of a corpus
  run nesting under its ``solver.query`` span;
* zero overhead with tracing off (the default);
* the :class:`~repro.obs.metrics.MetricsRegistry` instruments and the
  ``AnalysisReport`` statistics accessors being views over it;
* exporter round-trips and both directions of every schema validator.
"""

import inspect
import json
import pathlib
import threading

import pytest

from programs import SIMPLE_UAF
from test_corpus import CORPUS_FILES, _parse_directives
from repro import AnalysisConfig, Canary
from repro.__main__ import main as repro_main
from repro.analysis.driver import AnalysisReport
from repro.analysis.fingerprint import report_to_portable
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    SchemaError,
    Tracer,
    read_trace_ndjson,
    run_meta,
    validate_chrome_trace_file,
    validate_metrics_file,
    validate_trace_file,
    write_chrome_trace,
    write_metrics_json,
    write_trace_ndjson,
)
from repro.obs.export import spans_to_chrome_events
from repro.obs.schema import validate_metrics_doc, validate_span
from repro.obs.tracer import NULL_SPAN
from repro.obs.__main__ import main as obs_main

CORPUS = pathlib.Path(__file__).parent / "corpus"


# ----- tracer: nesting, ordering, attributes ---------------------------------


class TestSpans:
    def test_nesting_and_finish_order(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children finish (and are appended) before their parents
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert inner.end is not None and inner.end >= inner.start
        assert outer.trace_id == inner.trace_id == tracer.trace_id

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.spans_named("a")[0], tracer.spans_named("b")[0]
        root = tracer.spans_named("root")[0]
        assert a.parent_id == b.parent_id == root.span_id

    def test_attrs_coerced_to_json_scalars(self):
        tracer = Tracer()
        with tracer.span("s", n=3, label="x") as span:
            span.set("obj", object())
        rec = tracer.finished[0]
        assert rec.attrs["n"] == 3 and rec.attrs["label"] == "x"
        assert isinstance(rec.attrs["obj"], str)  # repr()-coerced
        validate_span(rec.as_dict())

    def test_exception_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = tracer.finished[0]
        assert span.end is not None
        assert "ValueError" in span.attrs["error"]
        with tracer.span("after") as after:  # stack unwound
            assert after.parent_id is None


class TestDisabledTracer:
    def test_null_tracer_span_is_shared_singleton(self):
        # the off path allocates nothing: every call returns NULL_SPAN
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.span("y", attr=1) is NULL_SPAN
        assert NULL_SPAN.set("k", "v") is NULL_SPAN

    def test_null_tracer_collects_nothing(self):
        with NULL_TRACER.span("ignored"):
            pass
        assert NULL_TRACER.finished == []

    def test_canary_defaults_to_disabled_tracing(self):
        canary = Canary(AnalysisConfig())
        assert canary.tracer is NULL_TRACER
        report = canary.analyze_source(SIMPLE_UAF)
        assert report.num_reports >= 1
        assert NULL_TRACER.finished == []


# ----- solver spans of a traced run -------------------------------------------


class TestSolverSpans:
    def test_solver_queries_nest_under_checker_span(self):
        # Over the whole corpus, every solver.query span nests under its
        # checker's detect pass, and every solver.solve span directly
        # under a solver.query span.
        tracer = Tracer()
        for path in CORPUS_FILES:
            text = path.read_text()
            _expects, checkers, overrides = _parse_directives(text)
            config = AnalysisConfig(checkers=checkers, **overrides)
            Canary(config, tracer=tracer).analyze_source(text, filename=path.name)
        by_id = {s.span_id: s for s in tracer.finished}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                names.append(span.name)
            return names

        queries = tracer.spans_named("solver.query")
        assert queries, "no solver.query spans recorded"
        for query in queries:
            chain = ancestors(query)
            assert any(name.startswith("pass:detect:") for name in chain), chain
            assert chain[-1] == "analyze"
        solves = tracer.spans_named("solver.solve")
        assert solves, "no solver.solve spans recorded"
        assert all(by_id[s.parent_id].name == "solver.query" for s in solves)
        # one solve per query
        assert sorted(s.parent_id for s in solves) == sorted(q.span_id for q in queries)
        # every span of the run belongs to one trace, no dangling parents
        assert all(s.parent_id is None or s.parent_id in by_id for s in tracer.finished)

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_program_spans_match_solver_counters(self, path):
        # Per program: one solver.query span per counted query, one
        # solver.solve directly under each, both carrying the verdict the
        # counters tally; and tracing leaves the findings as they are.
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        config = AnalysisConfig(checkers=checkers, **overrides)
        tracer = Tracer()
        traced = Canary(config, tracer=tracer).analyze_source(text, filename=path.name)
        plain = Canary(config).analyze_source(text, filename=path.name)
        assert [b.describe() for b in traced.bugs] == [b.describe() for b in plain.bugs]

        stats = traced.solver_statistics
        queries = tracer.spans_named("solver.query")
        assert len(queries) == stats["queries"]
        verdicts = [q.attrs["verdict"] for q in queries]
        for verdict in ("sat", "unsat", "unknown"):
            assert verdicts.count(verdict) == stats[verdict], verdict
        solve_of = {s.parent_id: s for s in tracer.spans_named("solver.solve")}
        assert sorted(solve_of) == sorted(q.span_id for q in queries)
        for query in queries:
            assert solve_of[query.span_id].attrs["verdict"] == query.attrs["verdict"]


# ----- metrics registry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_promotion_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("solver.queries")
        reg.inc("solver.queries", 2)
        reg.counter("solver.solve_seconds").add(0.0)
        reg.counter("solver.solve_seconds").add(0.25)
        assert reg.value("solver.queries") == 3
        assert reg.value("solver.solve_seconds") == 0.25
        reg.inc("search.visits", 5, checker="use-after-free")
        assert reg.value("search.visits", checker="use-after-free") == 5
        assert reg.value("search.visits") is None  # unlabeled is distinct

    def test_namespace_view_preserves_insertion_order(self):
        reg = MetricsRegistry()
        for key in ("queries", "sat", "unsat", "unknown"):
            reg.counter(f"solver.{key}")
        assert list(reg.namespace("solver")) == ["queries", "sat", "unsat", "unknown"]

    def test_namespace_label_filtering(self):
        reg = MetricsRegistry()
        reg.inc("checker.sources", 4, checker="uaf")
        reg.inc("checker.sources", 2, checker="df")
        reg.inc("checker.unlabeled", 1)
        assert reg.namespace("checker", label=("checker", "uaf")) == {"sources": 4}
        assert reg.namespace("checker") == {"unlabeled": 1}
        assert reg.label_values("checker", "checker") == ["uaf", "df"]

    def test_series_and_snapshot(self):
        reg = MetricsRegistry()
        reg.append("passes", name="parse", status="ran")
        reg.append("passes", name="lower", status="failed")
        reg.inc("solver.sat", 2)
        reg.set("vfg.nodes", 17)
        reg.observe("solver.latency", 0.5)
        reg.observe("solver.latency", 1.5)
        snap = reg.snapshot()
        assert snap["solver.sat"] == 2
        assert snap["vfg.nodes"] == 17
        assert snap["passes"] == [
            {"name": "parse", "status": "ran"},
            {"name": "lower", "status": "failed"},
        ]
        assert snap["solver.latency.count"] == 2
        assert snap["solver.latency.sum"] == 2.0
        assert snap["solver.latency.min"] == 0.5
        assert snap["solver.latency.max"] == 1.5
        assert list(snap) == sorted(snap)
        validate_metrics_doc({"meta": run_meta(), "metrics": snap})

    def test_counts_are_exact_under_contention(self):
        # The daemon's workers share one service registry: every
        # increment, observation and row lands exactly once.
        reg = MetricsRegistry()

        def hammer(tid):
            for i in range(300):
                reg.inc("server.completed")
                reg.inc("server.by_worker", worker=str(tid))
                reg.observe("server.analyze_seconds", 0.5)
                reg.append("requests", worker=tid, i=i)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        snap = reg.snapshot()
        assert snap["server.completed"] == 4 * 300
        assert reg.value("server.by_worker", worker="2") == 300
        assert snap["server.analyze_seconds.count"] == 4 * 300
        assert snap["server.analyze_seconds.sum"] == 4 * 300 * 0.5
        assert len(reg.series("requests")) == 4 * 300


class TestLegacyAccessorEquivalence:
    """AnalysisReport's statistics accessors are views over the registry
    the run filled."""

    def test_live_run_exposes_registry_and_identical_stats(self):
        config = AnalysisConfig()
        report = Canary(config).analyze_source(SIMPLE_UAF)
        snap = report.metrics.snapshot()
        assert report.solver_statistics["queries"] == snap["solver.queries"]
        assert "parse" in report.timings
        text = report.describe_statistics()
        assert "solver:" in text and "queries" in text

    def _corpus_report(self, stem="mixed_all_checkers"):
        text = (CORPUS / f"{stem}.mcc").read_text()
        _expects, checkers, overrides = _parse_directives(text)
        config = AnalysisConfig(checkers=checkers, **overrides)
        return Canary(config).analyze_source(text)

    def test_round_trip_shapes_and_order(self):
        # The portable payload carries the live run's views through JSON,
        # key order and number types included.
        report = self._corpus_report()
        back = json.loads(json.dumps(report_to_portable(report)))
        for view in (
            "vfg_summary",
            "solver_statistics",
            "checker_statistics",
            "search_statistics",
        ):
            assert json.dumps(back[view]) == json.dumps(getattr(report, view))
        assert back["truncation_warnings"] == report.truncation_warnings
        assert back["degradation_warnings"] == report.degradation_warnings
        assert isinstance(back["solver_statistics"]["solve_seconds"], float)
        assert isinstance(back["solver_statistics"]["queries"], int)

    def test_accessors_are_registry_views(self):
        reg = MetricsRegistry()
        reg.inc("solver.queries", 7)
        reg.set("vfg.nodes", 11)
        reg.inc("checker.sources", 2, checker="use-after-free")
        reg.inc("search.visits", 40, checker="use-after-free")
        reg.set("time.parse", 0.01)
        reg.append("passes", name="parse", status="run")
        report = AnalysisReport(metrics=reg)
        assert report.metrics is reg
        assert report.solver_statistics == {"queries": 7}
        assert report.vfg_summary == {"nodes": 11}
        assert report.checker_statistics == {"use-after-free": {"sources": 2}}
        assert report.search_statistics == {"use-after-free": {"visits": 40}}
        assert report.timings == {"parse": 0.01}
        assert report.pass_statistics == [{"name": "parse", "status": "run"}]
        # later writes to the registry show through every view
        reg.inc("solver.queries", 3)
        reg.append("passes", name="lower", status="failed")
        assert report.solver_statistics["queries"] == 10
        assert [row["name"] for row in report.pass_statistics] == ["parse", "lower"]

    def test_constructor_takes_findings_and_one_registry(self):
        params = list(inspect.signature(AnalysisReport.__init__).parameters)
        assert params == [
            "self",
            "bugs",
            "suppressed",
            "truncation_warnings",
            "degradation_warnings",
            "timed_out",
            "bundle",
            "metrics",
        ]

    @pytest.mark.parametrize(
        "view",
        [
            "vfg_summary",
            "timings",
            "solver_statistics",
            "checker_statistics",
            "search_statistics",
            "pass_statistics",
        ],
    )
    def test_statistics_views_are_read_only(self, view):
        report = AnalysisReport()
        with pytest.raises(AttributeError):
            setattr(report, view, {})

    def test_pass_rows_are_the_registry_series(self):
        # one pass table: the pass manager appends its rows to the run
        # registry's ``passes`` series and the report reads them there
        report = self._corpus_report()
        rows = report.metrics.series("passes")
        assert report.pass_statistics == rows
        assert rows and rows[0]["name"] == "parse"
        assert {row["status"] for row in rows} == {"run"}
        assert report.passes_run() == [row["name"] for row in rows]
        assert report.metrics.snapshot()["passes"] == rows


# ----- exporters and schema validators ---------------------------------------


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("analyze", file="x.mcc"):
        with tracer.span("pass:parse"):
            pass
        with tracer.span("solver.query") as q:
            q.set("verdict", "sat")
    return tracer


class TestExporters:
    def test_run_meta_block(self):
        meta = run_meta(config_digest="abc123", suite="enumeration")
        for key in ("schema", "git_sha", "python", "platform", "timestamp"):
            assert key in meta
        assert meta["config_digest"] == "abc123"
        assert meta["suite"] == "enumeration"

    def test_ndjson_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        out = tmp_path / "trace.ndjson"
        assert write_trace_ndjson(tracer.finished, out) == 3
        assert validate_trace_file(out) == 3
        records = read_trace_ndjson(out)
        assert [r["name"] for r in records] == [s.name for s in tracer.finished]
        assert records == [s.as_dict() for s in tracer.finished]

    def test_chrome_trace_export(self, tmp_path):
        tracer = _sample_tracer()
        out = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(tracer.finished, out) == 3
        assert validate_chrome_trace_file(out) == 3
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert all(ev["ph"] == "X" for ev in events)
        by_name = {ev["name"]: ev for ev in events}
        root = by_name["analyze"]
        assert by_name["pass:parse"]["args"]["parent_id"] == root["args"]["span_id"]
        assert by_name["solver.query"]["args"]["verdict"] == "sat"
        # timestamps/durations are microseconds
        span = tracer.spans_named("analyze")[0]
        assert root["ts"] == pytest.approx(span.start * 1e6)
        assert root["dur"] == pytest.approx((span.end - span.start) * 1e6)

    def test_chrome_events_keep_span_pid(self):
        tracer = Tracer()
        with tracer.span("checker") as span:
            span.pid = 99999  # as if traced in another process
        events = spans_to_chrome_events(tracer.finished)
        assert [ev["pid"] for ev in events] == [99999]

    def test_metrics_json_single_registry(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("solver.queries", 2)
        out = tmp_path / "metrics.json"
        doc = write_metrics_json(out, registry=reg, config_digest="cfg")
        assert doc["metrics"]["solver.queries"] == 2
        assert doc["meta"]["config_digest"] == "cfg"
        assert validate_metrics_file(out) == 1

    def test_metrics_json_multi_file(self, tmp_path):
        out = tmp_path / "metrics.json"
        write_metrics_json(
            out, files={"a.mcc": {"solver.queries": 1}, "b.mcc": {"solver.sat": 0}}
        )
        assert validate_metrics_file(out) == 2


class TestSchemaRejections:
    def test_trace_missing_meta_line(self, tmp_path):
        tracer = _sample_tracer()
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            "\n".join(json.dumps(s.as_dict()) for s in tracer.finished) + "\n"
        )
        with pytest.raises(SchemaError, match="no meta record"):
            validate_trace_file(bad)

    def test_trace_dangling_parent(self, tmp_path):
        tracer = _sample_tracer()
        spans = [s.as_dict() for s in tracer.finished]
        spans[0]["parent_id"] = "s999"
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            json.dumps({"meta": run_meta(), "kind": "trace"})
            + "\n"
            + "\n".join(json.dumps(s) for s in spans)
        )
        with pytest.raises(SchemaError, match="dangling parent"):
            validate_trace_file(bad)

    def test_span_end_before_start(self):
        tracer = _sample_tracer()
        span = tracer.finished[0].as_dict()
        span["end"] = span["start"] - 1.0
        with pytest.raises(SchemaError, match="end precedes start"):
            validate_span(span)

    def test_chrome_event_without_dur(self, tmp_path):
        bad = tmp_path / "bad.chrome.json"
        bad.write_text(
            json.dumps(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}
            )
        )
        with pytest.raises(SchemaError, match="without dur"):
            validate_chrome_trace_file(bad)

    def test_metrics_non_numeric_value(self):
        doc = {"meta": run_meta(), "metrics": {"solver.queries": "three"}}
        with pytest.raises(SchemaError, match="must be numeric"):
            validate_metrics_doc(doc)

    def test_validate_cli(self, tmp_path, capsys):
        tracer = _sample_tracer()
        good = tmp_path / "trace.ndjson"
        write_trace_ndjson(tracer.finished, good)
        assert obs_main(["validate", "--trace", str(good)]) == 0
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{}\n")
        assert obs_main(["validate", "--trace", str(bad)]) == 1
        assert obs_main(["validate", "--trace", str(tmp_path / "absent")]) == 2


# ----- CLI exporters end-to-end ----------------------------------------------


class TestCliExport:
    def test_analyzer_writes_all_three_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        chrome = tmp_path / "t.chrome.json"
        metrics = tmp_path / "m.json"
        rc = repro_main(
            [
                str(CORPUS / "uaf_basic.mcc"),
                "--trace-out",
                str(trace),
                "--trace-chrome",
                str(chrome),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 1  # findings present
        assert validate_trace_file(trace) > 0
        assert validate_chrome_trace_file(chrome) > 0
        assert validate_metrics_file(metrics) > 0
        doc = json.loads(metrics.read_text())
        (file_metrics,) = doc["files"].values()
        assert file_metrics["solver.queries"] >= 1
        assert "config_digest" in doc["meta"]
        names = {r["name"] for r in read_trace_ndjson(trace)}
        assert "analyze" in names
        assert any(n.startswith("pass:") for n in names)
        assert "solver.query" in names
