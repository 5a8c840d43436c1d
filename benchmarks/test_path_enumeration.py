"""Benchmarks for the sink-directed path enumeration engine.

Two stress shapes, each targeting one prune:

* **dead fan-out** — wide copy trees whose leaves are never dereferenced:
  only sink-reachability keeps the DFS out of them;
* **guard diamonds** — branch ladders whose arms contradict the source's
  guard arithmetically: the incremental guard prefix cuts the subtree at
  the first contradictory edge instead of solving every completed path.

Each program is analysed once without checkers; the use-after-free
checker then runs twice over the resulting VFG, pruned and with its
three prunes turned off (the reference DFS).  A wall time is the
analysis plus one checker run.  Every comparison also asserts the exactness
guarantee (identical bug keys with and without pruning).  Wall-clock
numbers are not hard-asserted (CI machines vary), except for generous
pathology bounds; ``tests/test_enumeration.py`` pins the exact visit,
prune and query counts of both shapes.
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


def _guard_diamond_program(n_arms: int) -> str:
    """The free happens under ``n >= 3``; every reader arm is guarded by
    ``n < 3`` — all candidates are guard-contradictory, and the prefix
    refutes each arm at its first edge."""
    lines = [
        "extern int n;",
        "void main() {",
        "    int** slot = malloc();",
        "    int* init = malloc();",
        "    *slot = init;",
        "    fork(t, w, slot);",
    ]
    for i in range(n_arms):
        lines.append(f"    if (n < 3) {{ int* v{i} = *slot; print(*v{i}); }}")
    lines.append("}")
    lines.append(
        "void w(int** s) { int* b = malloc();"
        " if (n >= 3) { *s = b; free(b); } }"
    )
    return "\n".join(lines)


def _bundle(text: str, **overrides):
    """(VFG bundle, seconds) of an analysis that runs no checker."""
    t0 = time.perf_counter()
    report = Canary(AnalysisConfig(checkers=(), **overrides)).analyze_source(text)
    return report.bundle, time.perf_counter() - t0


def _detect(built, prune: bool):
    """Run the use-after-free checker over a built bundle: (bug keys,
    analysis wall including the checker, visits, pruned edges, solver
    queries)."""
    bundle, build_s = built
    checker = UseAfterFreeChecker(
        bundle, sink_reachability=prune, guard_pruning=prune, dead_memo=prune
    )
    t0 = time.perf_counter()
    bugs = checker.run()
    wall = build_s + time.perf_counter() - t0
    stats = checker.search_stats
    return (
        sorted(b.key for b in bugs),
        wall,
        stats.visits,
        stats.pruned_unreachable + stats.pruned_guard,
        checker.realizability.statistics["queries"],
    )


def test_dead_fanout_reachability_prune():
    bundle = _bundle(_dead_fanout_program(width=12, depth=8))
    ref_keys, ref_wall, ref_visits, _, _ = _detect(bundle, prune=False)
    opt_keys, opt_wall, opt_visits, opt_pruned, _ = _detect(bundle, prune=True)
    assert ref_keys == opt_keys
    assert len(opt_keys) == 1
    assert opt_visits < ref_visits, (
        f"pruned DFS visited {opt_visits} nodes, reference {ref_visits}"
    )
    assert opt_pruned > 0


def test_guard_diamond_prefix_prune():
    # prune_guards=False disables the *construction-time* semi-decision
    # filter (the paper's §5.2 optimization), so the contradictions
    # survive into the VFG and only the enumeration-time prefix can cut
    # them — isolating the incremental prune.
    bundle = _bundle(_guard_diamond_program(n_arms=10), prune_guards=False)
    ref_keys, ref_wall, ref_visits, _, ref_queries = _detect(bundle, prune=False)
    opt_keys, opt_wall, opt_visits, guard_cuts, opt_queries = _detect(
        bundle, prune=True
    )
    assert ref_keys == opt_keys == []
    assert opt_visits <= ref_visits
    assert guard_cuts > 0, "contradictory arms must be cut by the prefix"
    # The reference run decides every contradictory candidate with the
    # solver; the pruned run never even assembles those formulas.
    assert opt_queries <= ref_queries


def test_check_wall_clock_no_regression():
    """The pruned engine must not be slower than the reference DFS on a
    mixed workload (generous bound for CI noise)."""
    bundle = _bundle(_dead_fanout_program(width=10, depth=6))
    _, ref_wall, _, _, _ = _detect(bundle, prune=False)
    _, opt_wall, _, _, _ = _detect(bundle, prune=True)
    assert opt_wall <= max(ref_wall * 1.5, ref_wall + 0.25)
