"""Fig. 8 — Canary end-to-end scalability.

Paper claims: time and memory grow almost linearly with subject size
(linear fits with R² ≈ 0.83 / 0.78); MySQL (~3 MLoC) finishes in ~2.5 h
and firefox (~9 MLoC) in ~4.67 h — i.e. the largest subjects complete.
Here: the full pipeline is timed on the generated subjects and the same
least-squares fit is computed; the largest subjects must complete and
the fit must be strongly linear.
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Canary
from repro.bench import fig8_fits, render_fig8

SWEEP = ["lrzip", "httrack", "transmission", "redis", "zfs", "openssl"]


@pytest.mark.parametrize("name", SWEEP)
def test_canary_end_to_end(benchmark, prepared, name):
    module, _truth, lines = prepared(name)
    # pytest-benchmark re-invokes the lambda; every call is one whole
    # analysis of the module.
    canary = Canary(AnalysisConfig())
    report = benchmark(lambda: canary.analyze_module(module))
    benchmark.extra_info["lines"] = lines
    benchmark.extra_info["reports"] = report.num_reports


def test_fig8_linear_fit(benchmark, all_runs):
    table = benchmark(lambda: render_fig8(all_runs))
    print("\n" + table)
    time_fit, mem_fit = fig8_fits(all_runs)
    # Near-linear growth (the paper reports R² around 0.8; the synthetic
    # corpus is cleaner, so we require at least that).
    assert time_fit.r_squared >= 0.75
    assert mem_fit.r_squared >= 0.75
    assert time_fit.slope > 0
    assert mem_fit.slope > 0


def test_largest_subjects_complete(benchmark, all_runs):
    """The mysql/firefox claim: the two largest subjects finish."""
    by_size = benchmark(lambda: sorted(all_runs, key=lambda r: r.lines))
    for run in by_size[-2:]:
        canary = run.tools["canary"]
        assert canary.seconds is not None
        assert canary.reports is not None
