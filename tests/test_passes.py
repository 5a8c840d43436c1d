"""The staged pass pipeline: pass accounting, config hashing, and
repeated and edited runs in one driver.

The load-bearing property is the last one: every run is one whole
analysis, so a second run of the same source in one driver runs every
pass again and reports exactly what the first did, and an edited source
re-analysed in the same driver reports exactly what a fresh driver does
— checked over the whole regression corpus.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import threading

import pytest

from repro.analysis import AnalysisConfig, Canary
from repro.analysis.config import INERT_FIELDS
from repro.analysis.fingerprint import report_to_portable
from repro.obs.tracer import Tracer
from repro.analysis.passes import PassManager
from repro.checkers import ALL_CHECKERS
from repro.obs.metrics import MetricsRegistry

from test_corpus import CORPUS_FILES, _parse_directives

CORPUS = pathlib.Path(__file__).parent / "corpus"

UAF = """
int *g;

void w_free() {
  free(g);
}

void w_use() {
  int x;
  x = *g;
  print(x);
}

int spin(int a) {
  return a + 1;
}

int main() {
  g = malloc(4);
  fork(t1, w_free);
  fork(t2, w_use);
  spin(1);
  return 0;
}
"""

#: a probe appended to any program: declared last, never called, no
#: memory traffic — label blocks keep every existing label (and bug key)
#: stable, while the module context fingerprint forces a full relower.
PROBE = "\nint incrprobe() {\n  return 1;\n}\n"


def _spin_subject(n_spin: int = 8) -> str:
    """The UAF of two workers through a global plus ``n_spin`` arithmetic
    helpers: a multi-function subject for the pass counts and repeated runs."""
    helpers = "".join(
        f"\nint spin{i}(int a) {{\n  int b;\n  b = a + {i};\n  return b * 2;\n}}\n"
        for i in range(n_spin)
    )
    calls = "".join(f"  spin{i}({i});\n" for i in range(n_spin))
    return (
        "int *g;\n\nvoid w_free() {\n  free(g);\n}\n\n"
        "void w_use() {\n  int x;\n  x = *g;\n  print(x);\n}\n"
        + helpers
        + "\nint main() {\n  g = malloc(4);\n  fork(t1, w_free);\n  fork(t2, w_use);\n"
        + calls
        + "  return 0;\n}"
    )


def _keys(report):
    return sorted(b.key for b in report.bugs)


# ----- pass manager ----------------------------------------------------------


class TestPassManager:
    def test_run_records_status_and_timing(self):
        pm = PassManager(MetricsRegistry())
        assert pm.run("work", lambda: 42) == 42
        assert pm.attempt("boom", lambda: 1 / 0) == (None, False)
        assert [r["status"] for r in pm.rows] == ["run", "failed"]
        assert all(r["seconds"] >= 0.0 for r in pm.rows)
        assert pm.rows[1]["detail"].startswith("ZeroDivisionError")

    def test_seconds_of_sums_prefixed_passes(self):
        pm = PassManager(MetricsRegistry())
        for name, seconds in {"detect:uaf": 1.0, "detect:race": 2.0, "dataflow": 4.0}.items():
            pm.rows.append({"name": name, "status": "run", "seconds": seconds})
        assert pm.seconds_of("detect") == pytest.approx(3.0)
        assert pm.seconds_of("dataflow", "detect") == pytest.approx(7.0)

    def test_statistics_rows_are_uniform(self):
        registry = MetricsRegistry()
        pm = PassManager(registry)
        pm.run("p", lambda: None, detail="d")
        (row,) = registry.series("passes")
        assert list(row) == ["name", "status", "seconds", "detail"]
        assert (row["name"], row["status"], row["detail"]) == ("p", "run", "d")


# ----- config hashing --------------------------------------------------------


def _variant(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value == "sc":
        return "tso"  # memory_model accepts only sc/tso/pso
    if isinstance(value, str):
        return value + "_alt"
    if isinstance(value, tuple):
        return value + ("double-free",)  # checkers accepts only checker names
    if value is None:
        return 1
    raise AssertionError(f"no variant rule for {value!r}")


class TestConfigCacheKey:
    def test_stable_across_instances(self):
        assert AnalysisConfig().cache_key() == AnalysisConfig().cache_key()

    def test_every_analysis_knob_changes_the_key(self):
        base = AnalysisConfig()
        base_key = base.cache_key()
        seen = {base_key}
        for f in dataclasses.fields(base):
            if f.name in INERT_FIELDS:
                continue
            flipped = dataclasses.replace(
                base, **{f.name: _variant(getattr(base, f.name))}
            )
            key = flipped.cache_key()
            assert key != base_key, f"{f.name} did not change the cache key"
            assert key not in seen, f"{f.name} collided with another knob"
            seen.add(key)

    def test_inert_fields_do_not_change_the_key(self):
        base = AnalysisConfig()
        for name in INERT_FIELDS:
            flipped = dataclasses.replace(
                base, **{name: _variant(getattr(base, name))}
            )
            assert flipped.cache_key() == base.cache_key(), name

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "48efc18f487e0a48"),
            ({"memory_model": "tso"}, "17778939e0f1dc69"),
            ({"memory_model": "pso"}, "e871396722fa2b29"),
            ({"checkers": tuple(sorted(ALL_CHECKERS))}, "dc946caa1de96342"),
            ({"max_search_visits": 1000, "timeout_seconds": 5.0}, "170b1f3ba0b67e6f"),
        ],
        ids=["default", "tso", "pso", "all-checkers", "budgets"],
    )
    def test_key_values_are_pinned(self, overrides, digest):
        # The key is the config digest in ``--metrics-out`` files and the
        # server's report registry: its value must not drift between
        # releases, whatever the inert fields hold.
        assert AnalysisConfig(**overrides).cache_key() == digest
        assert AnalysisConfig(use_cache=False, **overrides).cache_key() == digest


# ----- driver construction ---------------------------------------------------


class TestDriverConstruction:
    def test_default_config_is_fresh_per_instance(self):
        a, b = Canary(), Canary()
        assert a.config == AnalysisConfig()
        assert a.config is not b.config

    def test_with_config_keeps_the_tracer(self):
        tracer = Tracer()
        config = AnalysisConfig(checkers=("double-free",))
        sibling = Canary(tracer=tracer).with_config(config)
        assert sibling.config is config
        assert sibling.tracer is tracer


# ----- pass rows -------------------------------------------------------------


class TestPassRows:
    def test_cold_run_pass_count(self):
        # parse, lower, verify, pointer, tcg, mhp, dataflow, summaries,
        # interference and one detect pass: one dataflow row covers all
        # 11 functions
        cold = Canary().analyze_source(_spin_subject(), filename="subject.mcc")
        assert len(cold.passes_run()) == 10
        rows = [row for row in cold.pass_statistics if row["name"].startswith("dataflow")]
        assert [(row["name"], row["detail"]) for row in rows] == [
            ("dataflow", "11 function(s)")
        ]
        assert _keys(cold)

    def test_describe_statistics_counts_the_run_passes(self):
        report = Canary().analyze_source(UAF, filename="uaf.mcc")
        assert "passes: 10 run\n" in report.describe_statistics()

    @pytest.mark.parametrize(
        "text", [UAF, _spin_subject()], ids=["uaf", "spin8"]
    )
    def test_repeat_run_runs_every_pass(self, text):
        canary = Canary()
        first = canary.analyze_source(text, filename="uaf.mcc")
        second = canary.analyze_source(text, filename="uaf.mcc")
        assert first.passes_run()
        assert second.passes_run() == first.passes_run()
        assert {row["status"] for row in second.pass_statistics} == {"run"}
        assert _keys(first)
        assert _keys(second) == _keys(first)
        assert second.vfg_summary == first.vfg_summary

    def test_use_cache_is_inert(self):
        on = Canary(AnalysisConfig(use_cache=True)).analyze_source(UAF, filename="uaf.mcc")
        off = Canary(AnalysisConfig(use_cache=False)).analyze_source(UAF, filename="uaf.mcc")
        assert off.passes_run() == on.passes_run() != []
        assert _everything(off) == _everything(on)


# ----- concurrent runs -------------------------------------------------------


class TestConcurrentRuns:
    """Threads analysing at once in one process, as the daemon's worker
    pool does: no torn state, and bug keys equal the serial reference."""

    FILES = [
        "uaf_basic.mcc",
        "mixed_all_checkers.mcc",
        "doublefree_cross_thread.mcc",
        "uaf_two_workers.mcc",
    ]

    @staticmethod
    def _driver(name):
        text = (CORPUS / name).read_text()
        _expects, checkers, overrides = _parse_directives(text)
        return Canary(AnalysisConfig(checkers=checkers, **overrides)), text

    def _reference(self, name):
        canary, text = self._driver(name)
        return _keys(canary.analyze_source(text, filename=name))

    @staticmethod
    def _run_all(targets):
        errors: list = []

        def guarded(target):
            try:
                target()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_distinct_files_in_parallel_match_serial(self):
        expected = {name: self._reference(name) for name in self.FILES}
        results: dict = {}

        def work(name):
            canary, text = self._driver(name)
            for _ in range(2):  # a second lap in the same driver
                report = canary.analyze_source(text, filename=name)
            results[name] = _keys(report)

        self._run_all([lambda n=name: work(n) for name in self.FILES])
        assert results == expected

    def test_same_file_in_parallel_matches_serial(self):
        name = "mixed_all_checkers.mcc"
        expected = self._reference(name)
        results: list = []

        def work():
            canary, text = self._driver(name)
            results.append(_keys(canary.analyze_source(text, filename=name)))

        self._run_all([work] * 4)
        assert len(results) == 4
        assert all(r == expected for r in results), results


# ----- corpus-wide equivalence ----------------------------------------------


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_cold_warm_incremental_equivalence(path):
    """Over every corpus program: an appended-function edit analysed as
    the second run of one driver reports the bug keys of a fresh driver,
    and of the unedited source."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, **overrides)
    canary = Canary(config)
    cold = canary.analyze_source(text, filename=path.name)
    edited = text + PROBE
    incr = canary.analyze_source(edited, filename=path.name)
    assert incr.passes_run() == cold.passes_run(), path.name
    # label blocks: appending a function shifts no existing label
    assert _keys(incr) == _keys(cold), path.name
    fresh = Canary(config).analyze_source(edited, filename=path.name)
    assert _keys(incr) == _keys(fresh), path.name


def _prepend_line(text):
    return "// a line above everything\n" + text


def _first_body_line(lines):
    """Index of the first statement after the first opening brace."""
    opened = next(i for i, line in enumerate(lines) if line.rstrip().endswith("{"))
    return next(
        i for i in range(opened + 1, len(lines)) if lines[i].rstrip().endswith(";")
    )


def _blank_line_in_body(text):
    lines = text.split("\n")
    lines.insert(_first_body_line(lines), "")
    return "\n".join(lines)


def _reindent_line(text):
    lines = text.split("\n")
    at = _first_body_line(lines)
    lines[at] = "  " + lines[at]
    return "\n".join(lines)


def _described(report):
    return sorted(
        (
            b.describe(),
            tuple(str(s.location) for s in b.statements),
            b.path,
            tuple(sorted(b.witness_order.items())),
            repr(sorted(b.witness_env.items())),
        )
        for b in report.bugs
    )


@pytest.mark.parametrize(
    "edit", [_prepend_line, _blank_line_in_body, _reindent_line],
    ids=["prepend", "blank", "reindent"],
)
@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_line_moving_edit_matches_fresh(path, edit):
    """An edit that moves lines or columns but no code: the second run in
    one driver reports exactly what a fresh driver does, locations
    included."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, **overrides)
    canary = Canary(config)
    canary.analyze_source(text, filename=path.name)
    edited = edit(text)
    assert edited != text
    incr = canary.analyze_source(edited, filename=path.name)
    fresh = Canary(config).analyze_source(edited, filename=path.name)
    assert _described(incr) == _described(fresh), path.name


def _everything(report):
    """A report's findings, refutations and statistics, field for field
    (wall-clock seconds aside)."""
    return (
        [
            (
                b.key,
                b.describe(),
                b.path,
                b.inter_thread,
                [s.label for s in b.statements],
                b.witness_order,
                b.witness_env,
            )
            for b in report.bugs
        ],
        [(s.kind, s.source.label, s.sink.label, s.reason) for s in report.suppressed],
        report.vfg_summary,
        {k: v for k, v in report.solver_statistics.items() if k != "solve_seconds"},
        report.checker_statistics,
        report.search_statistics,
        report.truncation_warnings,
        report.degradation_warnings,
        report.timed_out,
    )


@pytest.mark.parametrize("collect_suppressed", [False, True], ids=["default", "suppressed"])
@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_repeat_run_runs_every_pass(path, collect_suppressed):
    """Over every corpus program: a second run of the same text in one
    driver runs every pass again and reports what the first run did,
    suppressed candidates and statistics included."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    overrides["collect_suppressed"] = collect_suppressed
    canary = Canary(AnalysisConfig(checkers=checkers, **overrides))
    first = canary.analyze_source(text, filename=path.name)
    second = canary.analyze_source(text, filename=path.name)
    assert {row["status"] for row in second.pass_statistics} == {"run"}, path.name
    assert second.passes_run() == first.passes_run(), path.name
    assert _everything(second) == _everything(first), path.name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_portable_record_survives_json(path):
    """Over every corpus program: the portable record that ``repro serve``
    returns as JSON from ``/reports/<id>`` encodes without a fallback and
    decodes to the same record, which names the report's findings by
    label."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, collect_suppressed=True, **overrides)
    cold = Canary(config).analyze_source(text, filename=path.name)
    record = report_to_portable(cold)
    decoded = json.loads(json.dumps(record))
    assert decoded == record, path.name
    assert [
        (b["kind"], b["source"], b["sink"], b["statements"]) for b in decoded["bugs"]
    ] == [
        (b.kind, b.source.label, b.sink.label, [s.label for s in b.statements])
        for b in cold.bugs
    ], path.name
    assert [
        (s["kind"], s["source"], s["sink"], s["reason"]) for s in decoded["suppressed"]
    ] == [
        (s.kind, s.source.label, s.sink.label, s.reason) for s in cold.suppressed
    ], path.name
