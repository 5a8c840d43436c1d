#!/usr/bin/env python3
"""Scenario: from static report to confirmed, exportable finding.

The full triage pipeline a downstream team would run:

1. Canary finds an inter-thread UAF and emits a *witness interleaving*
   (an SMT model of the execution constraints);
2. the concrete interpreter **replays** that witness and observes the
   violation at runtime — the report is confirmed, not just plausible;
3. the finding is exported as SARIF (for code-review tooling) and the
   guarded value-flow graph as Graphviz DOT (for visual inspection, à la
   the paper's Fig. 2b).

Run:  python examples/confirm_and_export.py [output-dir]
"""

import json
import pathlib
import sys

from repro import AnalysisConfig, Canary
from repro.checkers import report_to_sarif
from repro.interp import confirm_all
from repro.vfg import to_dot

RACY_CACHE = """
extern int refresh_enabled;

// A cache entry is republished by a refresher thread while readers may
// still be dereferencing the old pointer.
void refresher(int** entry) {
    if (refresh_enabled) {
        int* updated = malloc();
        *updated = 2;
        *entry = updated;
        int* stale = updated;
        free(stale);            // oops: frees the value just published
    }
}

void main() {
    int** entry = malloc();
    int* initial = malloc();
    *initial = 1;
    *entry = initial;
    fork(t, refresher, entry);
    int* current = *entry;
    print(*current);
}
"""


def main() -> None:
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")

    # keep_bundle: replay and the graph export read the run's module and VFG
    report = Canary(AnalysisConfig()).analyze_source(
        RACY_CACHE, "cache.mcc", keep_bundle=True
    )
    print(f"static analysis: {report.num_reports} finding(s)")
    for bug in report.bugs:
        print(bug.describe())
        print()

    # --- dynamic confirmation ------------------------------------------------
    results = confirm_all(report.bundle.module, report.bugs)
    for result in results:
        print(result.describe())
    confirmed = sum(1 for r in results if r.confirmed)
    print(f"\n{confirmed}/{len(results)} report(s) replayed to a runtime violation")

    # --- exports ---------------------------------------------------------------
    sarif_path = outdir / "findings.sarif"
    sarif_path.write_text(json.dumps(report_to_sarif(report), indent=2))
    dot_path = outdir / "vfg.dot"
    dot_path.write_text(to_dot(report.bundle.vfg))
    print(f"\nwrote {sarif_path} and {dot_path}")
    print("render the graph with:  dot -Tsvg vfg.dot -o vfg.svg")


if __name__ == "__main__":
    main()
