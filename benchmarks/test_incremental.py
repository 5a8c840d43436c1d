"""Benchmarks for the pass pipeline's whole-run cache.

Two scenarios on a multi-function subject:

* **warm** — re-analyzing identical input must execute *zero* passes
  (in particular no pointer/VFG pass) and report identical bug keys;
* **disk-warm** — with ``cache_dir``, a fresh driver (simulating a new
  process) re-executes only the frontend passes.

The assertions pin the pass counts and the key equivalence; wall-clock
time is not asserted (CI machines vary).
"""

from __future__ import annotations

from repro import AnalysisConfig, Canary

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


def test_warm_rerun_executes_zero_passes():
    text = _subject()
    canary = Canary(AnalysisConfig())
    cold = canary.analyze_source(text, filename="subject.mcc")
    warm = canary.analyze_source(text, filename="subject.mcc")

    assert _keys(cold), "subject must report the inter-thread UAF"
    assert _keys(warm) == _keys(cold)
    assert warm.passes_run() == []
    assert _vfg_passes_run(warm) == []


def test_disk_cache_warm_process(tmp_path):
    text = _subject()
    cfg = AnalysisConfig(cache_dir=str(tmp_path))
    cold = Canary(cfg).analyze_source(text, filename="subject.mcc")
    warm = Canary(cfg).analyze_source(text, filename="subject.mcc")
    assert _keys(warm) == _keys(cold)
    assert set(warm.passes_run()) == {"parse", "lower"}
    assert _vfg_passes_run(warm) == []
