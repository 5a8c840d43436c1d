"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_wrap_target_resolves():
    for module, attr, _span in layers.TARGETS:
        layers._resolve(module, attr)


def test_missing_wrap_target_names_itself():
    with pytest.raises(LookupError, match="repro.analysis.passes.no_such_pass"):
        layers._resolve("repro.analysis.passes", "no_such_pass")


@pytest.fixture(scope="module")
def traced_detect():
    """The detect input analysed once in this process with the wrappers on."""
    from repro import AnalysisConfig, Canary

    analysis = inputs.detect(0).timed[0]
    rec = layers.Recorder()
    uninstall = layers.install(rec)
    try:
        rec.enabled = True
        t0 = time.perf_counter()
        report = Canary(AnalysisConfig()).analyze_source(analysis.text, filename=analysis.filename)
        wall = time.perf_counter() - t0
        rec.enabled = False
    finally:
        uninstall()
    return analysis, report, wall, layers.layer_metrics([rec.raw()])


def test_install_is_undone(traced_detect):
    from repro.analysis import passes

    assert not hasattr(passes.parse_program, "__wrapped__")


def test_self_times_cover_the_traced_wall(traced_detect):
    analysis, report, wall, metrics = traced_detect
    assert analysis.oracle(analysis.text, [
        (b.kind, b.source.location.line, b.sink.location.line) for b in report.bugs
    ]) is None
    assert abs(layers.self_time_total(metrics) - wall) <= 0.02 * wall


def test_layer_seconds_agree_with_pass_statistics(traced_detect):
    _analysis, report, _wall, m = traced_detect
    rows = {}
    for row in report.pass_statistics:
        key = row["name"].split(":")[0]
        rows[key] = rows.get(key, 0.0) + row["seconds"]
    wrapped = {
        "parse": m["frontend.parse_s"],
        "lower": m["lowering.lower_s"] + m["lowering.unroll_s"],
        "dataflow": m["vfg.dataflow_s"],
        "summaries": m["vfg.summaries_s"],
        "detect": m["detection.enumerate_s"] + m["detection.formula_s"] + m["smt.solve_s"],
    }
    for name, seconds in wrapped.items():
        assert abs(seconds - rows[name]) <= 0.05 * rows[name], (name, seconds, rows[name])


def test_wrong_expect_raises_failed_share():
    path = inputs.CORPUS_DIR / "uaf_basic.mcc"
    right = inputs.corpus_analysis(path)
    wrong = inputs.Analysis(
        "uaf_basic_wrong", path.name, right.text,
        inputs.expect_oracle({"use-after-free": (2, 2)}), right.config,
    )
    workload = inputs.Workload("harness-test", resident=True, config={"use_cache": False},
                               timed=[right, wrong])
    bench = run.Run(workload, seed=0, trace=False)
    bench.measure(seconds=0)
    assert bench.attempted == 2 * run.MIN_REPS
    assert {f.split(":")[0] for f in bench.failures} == {"uaf_basic_wrong"}
    assert bench.extras()["failed_share"] == 0.5


def test_seed_zero_inputs_match_digests():
    for name in inputs.WORKLOADS:
        assert inputs.digest_mismatches(name) == []


def test_changed_input_fails_loudly(monkeypatch):
    monkeypatch.setattr(inputs, "DETECT_SLOTS", 2)
    assert inputs.digest_mismatches("detect") == ["detect"]
    with pytest.raises(run.HarnessError, match="differ from digests"):
        run.run_workload("detect", seed=0, seconds=0, trace=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_results_carry_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in SPEC[section]]
    assert sorted(line["metrics"]) == sorted(names)
    saved = json.loads((run.RESULTS / f"{workload}-seed1-trace{trace}.json").read_text())
    assert set(names) <= set(saved["workloads"][workload][section])


def test_compare_verdicts():
    def m(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3, "n": 5}

    assert compare.verdict(m(1.0, 0.99, 1.01), m(1.2, 1.19, 1.21), "lower", 0.1) == "worse"
    assert compare.verdict(m(1.0, 0.99, 1.01), m(0.9, 0.89, 0.91), "lower", 0.1) == "better"
    assert compare.verdict(m(1.0, 0.99, 1.01), m(1.05, 1.04, 1.06), "lower", 0.1) == "same"
    assert compare.verdict(m(1.0, 0.8, 1.2), m(1.0, 0.99, 1.01), "lower", 0.1) == "unresolved"


def test_fails_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
