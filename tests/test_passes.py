"""The staged pass pipeline: pass accounting, the run cache, and
cold/warm/edited equivalence.

The load-bearing property is the last one: a run-cache hit must report
exactly what a fresh cold run on the same source produces, and an edited
source re-analysed in the same driver exactly what a fresh driver
reports — checked over the whole regression corpus.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.analysis import AnalysisConfig, ArtifactStore, Canary
from repro.analysis.config import CACHE_ONLY_FIELDS
from repro.analysis.fingerprint import (
    named_instructions,
    report_from_portable,
    report_to_portable,
)
from repro.analysis.passes import PassManager, PassRecord

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
    helpers: a multi-function subject for the pass counts and the caches."""
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
        pm = PassManager()
        assert pm.run("work", lambda: 42) == 42
        pm.cached("skip", detail="because")
        assert [r.status for r in pm.records] == ["run", "cached"]
        assert pm.records[0].seconds >= 0.0
        assert pm.records[1].seconds == 0.0
        assert pm.counts() == {"run": 1, "cached": 1}

    def test_seconds_of_sums_prefixed_passes(self):
        pm = PassManager()
        pm.records += [
            PassRecord("detect:uaf", "run", 1.0),
            PassRecord("detect:race", "run", 2.0),
            PassRecord("dataflow", "run", 4.0),
        ]
        assert pm.seconds_of("detect") == pytest.approx(3.0)
        assert pm.seconds_of("dataflow", "detect") == pytest.approx(7.0)

    def test_statistics_rows_are_uniform(self):
        pm = PassManager()
        pm.run("p", lambda: None, detail="d")
        (row,) = pm.statistics()
        assert set(row) == {"name", "status", "seconds", "detail"}


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
            if f.name in CACHE_ONLY_FIELDS:
                continue
            flipped = dataclasses.replace(
                base, **{f.name: _variant(getattr(base, f.name))}
            )
            key = flipped.cache_key()
            assert key != base_key, f"{f.name} did not change the cache key"
            assert key not in seen, f"{f.name} collided with another knob"
            seen.add(key)

    def test_cache_plumbing_fields_do_not_change_the_key(self):
        base = AnalysisConfig()
        assert (
            dataclasses.replace(base, use_cache=False).cache_key() == base.cache_key()
        )


# ----- driver construction ---------------------------------------------------


class TestDriverConstruction:
    def test_default_config_is_fresh_per_instance(self):
        a, b = Canary(), Canary()
        assert a.config == AnalysisConfig()
        assert a.config is not b.config
        assert a.store is not b.store

    def test_explicit_store_is_shared(self):
        store = ArtifactStore()
        a = Canary(store=store)
        b = Canary(store=store)
        assert a.store is b.store


# ----- warm and edited runs -------------------------------------------------


#: the small subject and the larger multi-function one
SUBJECTS = pytest.mark.parametrize(
    "text", [UAF, _spin_subject()], ids=["uaf", "spin8"]
)


class TestWarmRuns:
    @SUBJECTS
    def test_warm_run_executes_no_pass(self, text):
        canary = Canary()
        cold = canary.analyze_source(text, filename="uaf.mcc")
        warm = canary.analyze_source(text, filename="uaf.mcc")
        assert cold.passes_run()
        assert _keys(cold)
        assert warm.passes_run() == []
        assert _keys(warm) == _keys(cold)
        assert warm.bundle is None  # hits rehydrate the portable record
        assert warm.vfg_summary == cold.vfg_summary

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

    def test_use_cache_false_always_reruns(self):
        canary = Canary(AnalysisConfig(use_cache=False))
        first = canary.analyze_source(UAF, filename="uaf.mcc")
        second = canary.analyze_source(UAF, filename="uaf.mcc")
        assert second.passes_run() == first.passes_run() != []

    def test_track_memory_bypasses_the_run_cache(self):
        canary = Canary()
        canary.analyze_source(UAF, filename="uaf.mcc")
        tracked = canary.analyze_source(UAF, filename="uaf.mcc", track_memory=True)
        assert tracked.passes_run() != []
        assert tracked.peak_memory_bytes > 0

    def test_warm_run_counts_the_hit_and_lists_cached_passes(self):
        canary = Canary()
        canary.analyze_source(UAF, filename="uaf.mcc")
        warm = canary.analyze_source(UAF, filename="uaf.mcc")
        assert warm.cache_statistics["artifact_hits"] == 1
        assert "passes:" in warm.describe_statistics()
        assert "cached" in warm.describe_passes()


# ----- corpus-wide equivalence ----------------------------------------------


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_cold_warm_incremental_equivalence(path):
    """Over every corpus program: a warm re-run executes no pass and an
    appended-function edit re-analyzes — both with identical bug keys."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, **overrides)
    canary = Canary(config)
    cold = canary.analyze_source(text, filename=path.name)
    warm = canary.analyze_source(text, filename=path.name)
    assert warm.passes_run() == [], path.name
    assert _keys(warm) == _keys(cold), path.name

    edited = text + PROBE
    incr = canary.analyze_source(edited, filename=path.name)
    assert incr.passes_run() != [], path.name
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
    """An edit that moves lines or columns but no code: the re-analysis
    in the same driver reports exactly what a fresh run does, locations
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
    """A report's findings, refutations and statistics, field for field."""
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
        report.solver_statistics,
        report.checker_statistics,
        report.search_statistics,
        report.truncation_warnings,
        report.degradation_warnings,
        report.timed_out,
    )


@pytest.mark.parametrize("collect_suppressed", [False, True], ids=["default", "suppressed"])
@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_memory_hit_equals_cold(path, collect_suppressed):
    """Over every corpus program: a memory hit rehydrates the portable
    record from the instructions stored with it without running a pass,
    and reports what the cold run did, suppressed candidates and
    statistics included."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    overrides["collect_suppressed"] = collect_suppressed
    canary = Canary(AnalysisConfig(checkers=checkers, **overrides))
    cold = canary.analyze_source(text, filename=path.name)
    warm = canary.analyze_source(text, filename=path.name)
    assert warm.passes_run() == [], path.name
    assert warm.bundle is None
    assert _everything(warm) == _everything(cold), path.name
    again = canary.analyze_source(text, filename=path.name)
    assert _everything(again) == _everything(cold), path.name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_shared_store_round_trip(path):
    """Over every corpus program: a second driver instance on the same
    store (the daemon's shape: one resident store, a fresh driver per
    request) answers from the memory layer without running a pass, with
    the cold run's findings field for field; a driver whose config
    differs in an analysis knob misses."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    store = ArtifactStore()
    config = AnalysisConfig(checkers=checkers, **overrides)
    cold = Canary(config, store=store).analyze_source(text, filename=path.name)
    warm = Canary(dataclasses.replace(config), store=store).analyze_source(
        text, filename=path.name
    )
    assert warm.passes_run() == [], path.name
    assert _everything(warm) == _everything(cold), path.name
    other = dataclasses.replace(config, max_search_visits=config.max_search_visits + 1)
    miss = Canary(other, store=store).analyze_source(text, filename=path.name)
    assert miss.passes_run() != [], path.name
    assert store.statistics()["artifact_hits"] == 1, path.name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_portable_record_survives_json(path):
    """Over every corpus program: the portable record that ``repro serve``
    returns as JSON from ``/reports/<id>`` encodes without a fallback,
    decodes to the same record, and rehydrates from the instructions the
    findings name to the cold report field for field."""
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, use_cache=False, **overrides)
    cold = Canary(config).analyze_source(text, filename=path.name)
    record = report_to_portable(cold)
    decoded = json.loads(json.dumps(record))
    assert decoded == record, path.name
    again = report_from_portable(decoded, named_instructions(cold))
    assert _everything(again) == _everything(cold), path.name
