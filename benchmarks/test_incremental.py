"""Benchmarks for the pass pipeline's whole-run cache.

Two scenarios on a multi-function subject:

* **warm** — re-analyzing identical input must execute *zero* passes
  (in particular no pointer/VFG pass) and report identical bug keys;
* **disk-warm** — with ``cache_dir``, a fresh driver (simulating a new
  process) re-executes only the frontend passes.

Results are written to ``BENCH_incremental.json`` in the repo root;
wall-clock numbers are recorded rather than hard-asserted (CI machines
vary) — the assertions pin the pass counts and the key equivalence.
"""

from __future__ import annotations

import pathlib
import time

from repro import AnalysisConfig, Canary
from repro.bench import write_bench_results

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "BENCH_incremental.json"

#: pointer/VFG passes — the expensive middle of the pipeline
VFG_PASSES = ("pointer", "tcg", "mhp", "dataflow", "interference")


def _subject(n_spin: int = 8) -> str:
    """An inter-thread UAF between two workers communicating through a
    global, plus ``n_spin`` arithmetic helpers analyzed alongside them."""
    parts = [
        "int *g;",
        "",
        "void w_free() {",
        "  free(g);",
        "}",
        "",
        "void w_use() {",
        "  int x;",
        "  x = *g;",
        "  print(x);",
        "}",
    ]
    for i in range(n_spin):
        parts += [
            "",
            f"int spin{i}(int a) {{",
            f"  int b;",
            f"  b = a + {i};",
            f"  return b * 2;",
            f"}}",
        ]
    parts += [
        "",
        "int main() {",
        "  g = malloc(4);",
        "  fork(t1, w_free);",
        "  fork(t2, w_use);",
    ]
    parts += [f"  spin{i}({i});" for i in range(n_spin)]
    parts += ["  return 0;", "}"]
    return "\n".join(parts)


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _vfg_passes_run(report):
    return [
        name
        for name in report.passes_run()
        if name.split(":")[0] in VFG_PASSES
    ]


_results: dict = {}


def _record(name: str, **data) -> None:
    _results[name] = data
    write_bench_results(RESULTS, _results, suite="incremental")


def test_warm_rerun_executes_zero_passes():
    text = _subject()
    canary = Canary(AnalysisConfig())
    t0 = time.perf_counter()
    cold = canary.analyze_source(text, filename="subject.mcc")
    cold_wall = time.perf_counter() - t0
    t1 = time.perf_counter()
    warm = canary.analyze_source(text, filename="subject.mcc")
    warm_wall = time.perf_counter() - t1

    assert _keys(cold), "subject must report the inter-thread UAF"
    assert _keys(warm) == _keys(cold)
    assert warm.passes_run() == []
    assert _vfg_passes_run(warm) == []
    _record(
        "warm",
        cold_seconds=cold_wall,
        warm_seconds=warm_wall,
        speedup=cold_wall / warm_wall if warm_wall else float("inf"),
        cold_passes_run=len(cold.passes_run()),
        warm_passes_run=len(warm.passes_run()),
    )


def test_disk_cache_warm_process(tmp_path):
    text = _subject()
    cfg = AnalysisConfig(cache_dir=str(tmp_path))
    cold = Canary(cfg).analyze_source(text, filename="subject.mcc")
    t0 = time.perf_counter()
    warm = Canary(cfg).analyze_source(text, filename="subject.mcc")
    warm_wall = time.perf_counter() - t0
    assert _keys(warm) == _keys(cold)
    assert set(warm.passes_run()) == {"parse", "lower"}
    assert _vfg_passes_run(warm) == []
    _record(
        "disk_warm",
        warm_seconds=warm_wall,
        passes_run=sorted(warm.passes_run()),
    )
