#!/usr/bin/env python3
"""Scenario: using Canary as a library on your own MiniCC source file.

Shows the programmatic surface a downstream user needs: parsing a file,
picking checkers, tuning the soundiness knobs, and consuming the report
objects (rather than printed text).

Run:  python examples/check_my_file.py [path/to/file.mcc]
      (without an argument it analyzes a bundled demo program)
"""

import sys

from repro import AnalysisConfig, Canary

DEMO = """
extern int shutting_down;

void logger(int** line) {
    int* msg = *line;
    if (!shutting_down) {
        print(*msg);
    }
}

void main() {
    int** line = malloc();
    int* msg = malloc();
    *line = msg;
    fork(t, logger, line);
    if (shutting_down) {
        free(msg);          // reclaim on shutdown
    }
}
"""


def main() -> None:
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as fh:
            source = fh.read()
        filename = sys.argv[1]
    else:
        source = DEMO
        filename = "demo.mcc"

    config = AnalysisConfig(
        checkers=("use-after-free", "double-free", "null-deref"),
        unroll_depth=2,        # paper §6: loops unrolled twice
        context_depth=6,       # paper §7.2: calling-context depth six
    )
    report = Canary(config).analyze_source(source, filename=filename)

    print(f"{filename}: {report.num_reports} finding(s)")
    for bug in report.bugs:
        # Structured access — what an IDE/CI integration would consume:
        print(f"  kind      : {bug.kind}")
        print(f"  free/site : {bug.source.location} (ℓ{bug.source.label})")
        print(f"  use/site  : {bug.sink.location} (ℓ{bug.sink.label})")
        print(f"  crosses   : {'threads' if bug.inter_thread else 'one thread'}")
        print(f"  schedule  : {bug.witness_order}")
        print()
    if not report.bugs:
        print(
            "  (the demo is bug-free: the free is guarded by shutting_down\n"
            "   and the dereference by !shutting_down — Canary proves the\n"
            "   interleaving infeasible instead of flagging it)"
        )


if __name__ == "__main__":
    main()
