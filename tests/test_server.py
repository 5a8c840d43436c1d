"""The analysis daemon: service lifecycle, HTTP endpoints, and the
correctness bar — daemon-served reports are bug-key- and
witness-identical to CLI one-shot runs, whether a request re-submits
the same or an edited file, or runs concurrently with another request
for the same filename.
"""

from __future__ import annotations

import json
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis import AnalysisConfig, Canary
from repro.analysis.fingerprint import report_to_portable
from repro.server import AnalysisService, ReportRegistry
from repro.server.app import make_server
from repro.server.service import ConfigError

from test_corpus import CORPUS_FILES, _parse_directives

CORPUS = pathlib.Path(__file__).parent / "corpus"

#: a representative cross-checker slice of the corpus (the full corpus
#: equivalence sweep lives in test_corpus/test_passes; here we pay for
#: daemon round-trips per file)
SUBJECTS = [
    "uaf_basic.mcc",
    "mixed_all_checkers.mcc",
    "doublefree_cross_thread.mcc",
    "nullderef_shared.mcc",
    "leak_shared_memory.mcc",
    "uaf_two_routes_first_infeasible.mcc",
]


@pytest.fixture()
def service():
    svc = AnalysisService(workers=2, max_reports=64)
    yield svc
    svc.shutdown()


def _subject(name):
    text = (CORPUS / name).read_text()
    _expects, checkers, overrides = _parse_directives(text)
    return text, {"checkers": list(checkers), **overrides}


def _reference_portable(name):
    text, overrides = _subject(name)
    config = AnalysisConfig(
        **{**overrides, "checkers": tuple(overrides["checkers"])}
    )
    report = Canary(config).analyze_source(text, filename=name)
    return report_to_portable(report)


# ----- the correctness bar ---------------------------------------------------


class TestDaemonCliEquivalence:
    @pytest.mark.parametrize("name", SUBJECTS)
    def test_daemon_report_identical_to_one_shot(self, service, name):
        text, overrides = _subject(name)
        record = service.analyze(text, name, overrides, timeout=120)
        assert record.status == "done", record.error
        reference = _reference_portable(name)
        # bug keys AND witnesses: the full portable payloads must match
        assert record.result["bugs"] == reference["bugs"]
        assert record.result["suppressed"] == reference["suppressed"]
        assert record.result["truncation_warnings"] == reference["truncation_warnings"]

    def test_resubmission_runs_every_pass(self, service):
        text, overrides = _subject("uaf_basic.mcc")
        first = service.analyze(text, "uaf_basic.mcc", overrides, timeout=120)
        second = service.analyze(text, "uaf_basic.mcc", overrides, timeout=120)
        assert second.result["bugs"] == first.result["bugs"]
        assert second.result["bugs"] == _reference_portable("uaf_basic.mcc")["bugs"]
        # the re-submission is analysed again, pass for pass
        assert second.result["passes_run"] == first.result["passes_run"]
        assert {row["status"] for row in second.result["pass_statistics"]} == {"run"}

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_resubmission_equals_one_shot(self, service, path):
        """Over every corpus program: a resident service (one process, a
        fresh driver per request) analyses a byte-identical re-submission
        again, pass for pass, and both answers are the one-shot run's."""
        text, overrides = _subject(path.name)
        first = service.analyze(text, path.name, overrides, timeout=120)
        second = service.analyze(text, path.name, overrides, timeout=120)
        assert first.status == second.status == "done", (first.error, second.error)
        assert second.result["passes_run"] == first.result["passes_run"] != []
        assert {row["status"] for row in second.result["pass_statistics"]} == {"run"}
        reference = _reference_portable(path.name)
        for record in (first, second):
            for field in ("bugs", "suppressed", "truncation_warnings", "degradation_warnings"):
                assert record.result[field] == reference[field], (path.name, field)

    def test_edited_resubmission_equals_one_shot(self, service):
        text, overrides = _subject("mixed_all_checkers.mcc")
        cold = service.analyze(text, "mixed.mcc", overrides, timeout=120)
        total = len(cold.result["pass_statistics"])
        assert len(cold.result["passes_run"]) == total  # cold = everything
        edited = text.replace("print(", "print(0 + ", 1)
        again = service.analyze(edited, "mixed.mcc", overrides, timeout=120)
        assert again.status == "done", again.error
        config = AnalysisConfig(
            **{**overrides, "checkers": tuple(overrides["checkers"])}
        )
        one_shot = report_to_portable(
            Canary(config).analyze_source(edited, filename="mixed.mcc")
        )
        assert again.result["bugs"] == one_shot["bugs"]
        assert again.result["suppressed"] == one_shot["suppressed"]


# ----- request isolation -----------------------------------------------------


class TestRequestIsolation:
    def test_per_request_checkers(self, service):
        text, _overrides = _subject("mixed_all_checkers.mcc")
        uaf = service.analyze(
            text, "m.mcc", {"checkers": ["use-after-free"]}, timeout=120
        )
        df = service.analyze(
            text, "m.mcc", {"checkers": ["double-free"]}, timeout=120
        )
        assert {b["kind"] for b in uaf.result["bugs"]} <= {"use-after-free"}
        assert {b["kind"] for b in df.result["bugs"]} <= {"double-free"}
        assert uaf.config_digest != df.config_digest

    def test_unknown_knob_rejected(self, service):
        with pytest.raises(ConfigError):
            service.request_config({"no_such_knob": 1})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"memory_model": "xyz"},
            {"unroll_depth": 0},
            {"context_depth": -3},
            {"max_path_depth": -1},
        ],
    )
    def test_out_of_range_value_rejected(self, service, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            service.request_config(overrides)

    @pytest.mark.parametrize(
        "knob",
        [
            "timeout_seconds",
            "solver_timeout_seconds",
            "pass_timeout_seconds",
            "solver_max_conflicts",
        ],
    )
    def test_negative_budget_rejected(self, service, knob):
        with pytest.raises(ConfigError, match=knob):
            service.submit("int main() { return 0; }", "n.mcc", {knob: -1})
        assert getattr(service.request_config({knob: 0}), knob) == 0

    def test_inert_knob_rejected(self, service):
        with pytest.raises(ConfigError, match="inert config knob"):
            service.request_config({"use_cache": False})

    def test_deleted_cache_dir_knob_is_unknown(self, service):
        with pytest.raises(ConfigError, match="unknown config knob"):
            service.request_config({"cache_dir": "/tmp/elsewhere"})

    def test_unknown_checker_rejected(self, service):
        with pytest.raises(ConfigError):
            service.request_config({"checkers": ["nope"]})

    def test_per_request_budget(self, service):
        cfg = service.request_config({"timeout_seconds": 0.5})
        assert cfg.timeout_seconds == 0.5
        assert service.config.timeout_seconds is None  # default untouched

    def test_frontend_error_fails_one_request_only(self, service):
        bad = service.analyze("int main( {{{", "bad.mcc", timeout=60)
        assert bad.status == "failed"
        assert "frontend" in bad.error
        text, overrides = _subject("uaf_basic.mcc")
        good = service.analyze(text, "good.mcc", overrides, timeout=120)
        assert good.status == "done"  # the worker survived


# ----- concurrency through the daemon ---------------------------------------


class TestConcurrentRequests:
    def test_parallel_mixed_submissions_match_serial(self, service):
        expected = {name: _reference_portable(name)["bugs"] for name in SUBJECTS}
        records = {}
        for name in SUBJECTS:  # enqueue everything, then drain
            text, overrides = _subject(name)
            records[name] = service.submit(text, name, overrides)
        for name, record in records.items():
            finished = service.registry.wait(record.id, timeout=120)
            assert finished.status == "done", (name, finished.error)
            assert finished.result["bugs"] == expected[name], name

    def test_metrics_accumulate_across_requests(self, service):
        text, overrides = _subject("uaf_basic.mcc")
        service.analyze(text, "a.mcc", overrides, timeout=120)
        service.analyze(text, "b.mcc", overrides, timeout=120)
        snapshot = service.metrics_snapshot()
        assert snapshot["server.requests"] == 2
        assert snapshot["server.completed"] == 2
        assert snapshot["server.analyze_seconds.count"] == 2
        assert snapshot["server.reports_done"] == 2



def _with_probe(text):
    return text + "\nint probe() {\n  return 1;\n}\n"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_same_filename_concurrent_sources_match_one_shot(path):
    """Two threads submit different sources under one filename to one
    service at the same time.  Same-file requests share no live state,
    so each result is its own one-shot report."""
    text, overrides = _subject(path.name)
    sources = [text, _with_probe(text)]
    config = AnalysisConfig(**{**overrides, "checkers": tuple(overrides["checkers"])})
    expected = [
        report_to_portable(Canary(config).analyze_source(src, filename=path.name))
        for src in sources
    ]
    svc = AnalysisService(workers=2, max_reports=8)
    try:
        results = [None, None]
        barrier = threading.Barrier(2)

        def submit(i):
            barrier.wait()
            results[i] = svc.analyze(sources[i], path.name, overrides, timeout=120)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        svc.shutdown()
    for record, reference in zip(results, expected):
        assert record.status == "done", (path.name, record.error)
        for field in ("bugs", "suppressed", "truncation_warnings"):
            assert record.result[field] == reference[field], (path.name, field)


# ----- report registry -------------------------------------------------------


class TestReportRegistry:
    def test_lifecycle(self):
        registry = ReportRegistry()
        record = registry.create("f.mcc", "cfg1")
        assert record.status == "queued"
        registry.set_running(record.id)
        assert registry.get(record.id).status == "running"
        registry.set_done(record.id, {"bugs": []}, metrics={"m": 1})
        done = registry.get(record.id)
        assert done.status == "done"
        assert done.result == {"bugs": []}
        assert done.as_dict()["metrics"] == {"m": 1}

    def test_wait_returns_after_done(self):
        registry = ReportRegistry()
        record = registry.create("f.mcc", "cfg1")
        timer = threading.Timer(
            0.05, registry.set_done, args=(record.id, {"bugs": []})
        )
        timer.start()
        finished = registry.wait(record.id, timeout=5)
        assert finished.status == "done"

    def test_wait_timeout_returns_unfinished(self):
        registry = ReportRegistry()
        record = registry.create("f.mcc", "cfg1")
        waited = registry.wait(record.id, timeout=0.05)
        assert waited.status == "queued"

    def test_bounded_retention_evicts_finished_only(self):
        registry = ReportRegistry(max_reports=3)
        done_ids = []
        for i in range(3):
            rec = registry.create(f"f{i}.mcc", "cfg")
            registry.set_done(rec.id, {})
            done_ids.append(rec.id)
        inflight = registry.create("live.mcc", "cfg")
        assert len(registry) == 3  # oldest finished record evicted
        assert registry.get(done_ids[0]) is None
        assert registry.get(inflight.id) is not None
        assert registry.counts()["evicted"] == 1


# ----- the HTTP face ---------------------------------------------------------


@pytest.fixture(scope="class")
def http_server():
    service = AnalysisService(workers=2, max_reports=64)
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1], service
    server.shutdown()
    server.server_close()
    service.shutdown()


def _call(port, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpEndpoints:
    def test_healthz(self, http_server):
        port, _service = http_server
        status, body = _call(port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2

    def test_analyze_wait_round_trip(self, http_server):
        port, _service = http_server
        text, overrides = _subject("uaf_basic.mcc")
        status, body = _call(
            port,
            "POST",
            "/analyze",
            {"source": text, "filename": "uaf.mcc", "config": overrides, "wait": True},
        )
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["bugs"] == _reference_portable("uaf_basic.mcc")["bugs"]

    def test_analyze_poll_round_trip(self, http_server):
        port, service = http_server
        text, overrides = _subject("uaf_basic.mcc")
        status, body = _call(
            port,
            "POST",
            "/analyze",
            {"source": text, "filename": "poll.mcc", "config": overrides},
        )
        assert status == 202
        report_id = body["report_id"]
        service.registry.wait(report_id, timeout=120)
        status, body = _call(port, "GET", f"/reports/{report_id}")
        assert status == 200
        assert body["status"] == "done"
        assert body["metrics"]  # the run's scoped metrics snapshot rides along

    def test_reports_listing(self, http_server):
        port, _service = http_server
        status, body = _call(port, "GET", "/reports")
        assert status == 200
        assert isinstance(body["reports"], list)
        assert all("result" not in r for r in body["reports"])

    def test_metrics_endpoint(self, http_server):
        port, _service = http_server
        status, body = _call(port, "GET", "/metrics")
        assert status == 200
        assert body["server.requests"] >= 1
        assert "server.uptime_seconds" in body

    def test_bad_requests(self, http_server):
        port, _service = http_server
        assert _call(port, "POST", "/analyze", {"source": ""})[0] == 400
        assert _call(port, "POST", "/analyze", {"filename": "x"})[0] == 400
        status, body = _call(
            port, "POST", "/analyze", {"source": "int main() { return 0; }",
                                       "config": {"bogus": 1}}
        )
        assert status == 400 and "bogus" in body["error"]
        status, body = _call(
            port, "POST", "/analyze", {"source": "int main() { return 0; }",
                                       "config": {"cache_dir": "/tmp/elsewhere"}}
        )
        assert status == 400 and "unknown config knob" in body["error"]
        for knob, value in (
            ("memory_model", "xyz"), ("unroll_depth", 0), ("context_depth", -3)
        ):
            status, body = _call(
                port, "POST", "/analyze", {"source": "int main() { return 0; }",
                                           "config": {knob: value}}
            )
            assert status == 400 and knob in body["error"]
        assert _call(port, "GET", "/reports/r999999")[0] == 404
        assert _call(port, "GET", "/nope")[0] == 404

    def test_cancel_endpoints(self, http_server):
        port, service = http_server
        text, overrides = _subject("uaf_basic.mcc")
        status, body = _call(
            port,
            "POST",
            "/analyze",
            {"source": text, "filename": "c.mcc", "config": overrides, "wait": True},
        )
        report_id = body["id"]
        # finished runs cannot be cancelled: 409, record untouched
        status, body = _call(port, "DELETE", f"/reports/{report_id}")
        assert status == 409
        assert body["cancelled"] is False
        status, _body = _call(port, "POST", f"/reports/{report_id}/cancel")
        assert status == 409


# ----- the serve subcommand --------------------------------------------------


class TestServeCli:
    def test_serve_dispatch_exists(self):
        from repro.__main__ import main

        # --help exits 0 through argparse's SystemExit
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0

    def test_unknown_checker_rejected(self):
        from repro.server.app import serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--checkers", "nope"])
        assert excinfo.value.code == 2
