"""Wall clock of the sink-directed path enumeration engine.

The **dead fan-out** shape (wide copy trees whose leaves are never
dereferenced: only sink-reachability keeps the DFS out of them) is
analysed once without checkers; the use-after-free checker then runs
twice over the resulting VFG, pruned and with its three prunes turned
off (the reference DFS).  A wall time is the analysis plus one checker
run, held to a generous pathology bound (CI machines vary).
``tests/test_enumeration.py::TestPinnedPruneCounts`` pins the exact
visit, prune and query counts of this shape and of the guard-diamond
shape, and the identical bug keys with and without pruning.
"""

from __future__ import annotations

import time

from repro import AnalysisConfig, Canary
from repro.checkers import UseAfterFreeChecker


def _dead_fanout_program(width: int, depth: int) -> str:
    """One real UAF plus ``width`` copy chains of ``depth`` hops whose
    ends are never dereferenced — pure enumeration waste without the
    reachability index."""
    lines = [
        "void main() {",
        "    int** slot = malloc();",
        "    int* init = malloc();",
        "    *slot = init;",
        "    fork(t, w, slot);",
        "    int* live = *slot;",
        "    print(*live);",
    ]
    for i in range(width):
        lines.append(f"    int* d{i}_0 = *slot;")
        for j in range(depth):
            lines.append(f"    int* d{i}_{j + 1} = d{i}_{j};")
    lines.append("}")
    lines.append("void w(int** s) { int* b = malloc(); *s = b; free(b); }")
    return "\n".join(lines)


def _bundle(text: str):
    """(VFG bundle, seconds) of an analysis that runs no checker."""
    t0 = time.perf_counter()
    report = Canary(AnalysisConfig(checkers=())).analyze_source(text, keep_bundle=True)
    return report.bundle, time.perf_counter() - t0


def _wall(built, prune: bool) -> float:
    """The analysis wall plus one use-after-free checker run over the
    built bundle, pruned or with its three prunes off."""
    bundle, build_s = built
    checker = UseAfterFreeChecker(
        bundle, sink_reachability=prune, guard_pruning=prune, dead_memo=prune
    )
    t0 = time.perf_counter()
    checker.run()
    return build_s + time.perf_counter() - t0


def test_check_wall_clock_no_regression():
    """The pruned engine must not be slower than the reference DFS on a
    mixed workload (generous bound for CI noise)."""
    bundle = _bundle(_dead_fanout_program(width=10, depth=6))
    ref_wall = _wall(bundle, prune=False)
    opt_wall = _wall(bundle, prune=True)
    assert opt_wall <= max(ref_wall * 1.5, ref_wall + 0.25)
