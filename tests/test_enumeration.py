"""Tests for the sink-directed enumeration engine: the incremental
difference-bound store, the GuardPrefix quick-unsat filter, the
sink-reachability index, and — end to end — the guarantee that all three
prunes are exact with respect to the reported bug keys.  The unpruned
reference runs each checker directly with its three prunes turned off.
"""

import pathlib

import pytest

from repro.analysis import AnalysisConfig, Canary
from repro.checkers import ALL_CHECKERS, UseAfterFreeChecker
from repro.detection import (
    PathSearcher,
    RealizabilityChecker,
    SearchLimits,
    SinkReachabilityIndex,
)
from repro.threads.locks import LockAnalysis
from repro.detection.reachability import INFINITE_AVAIL
from repro.smt import GuardPrefix, TRUE, FALSE, and_, bool_var, int_var, lt, not_, quick_unsat
from repro.smt.theory import DifferenceBound, IncrementalBoundStore
from repro.vfg.graph import ValueFlowGraph
from repro.__main__ import main as repro_main

from fuzz_gen import detection_scaled_program, scaled_program
from test_corpus import CORPUS_FILES, _parse_directives
from programs import SIMPLE_UAF

CORPUS = pathlib.Path(__file__).parent / "corpus"


# ----- IncrementalBoundStore -------------------------------------------------


class TestIncrementalBoundStore:
    def test_consistent_bounds_stay_sat(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", 5))  # a - b <= 5
        assert not store.assert_bound(DifferenceBound("b", "c", 3))
        assert not store.unsat

    def test_negative_cycle_detected(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", -1))  # a < b
        assert store.assert_bound(DifferenceBound("b", "a", -1))  # b < a: cycle
        assert store.unsat

    def test_pop_restores_satisfiability(self):
        store = IncrementalBoundStore()
        store.push()
        store.assert_bound(DifferenceBound("a", "b", -1))
        store.push()
        assert store.assert_bound(DifferenceBound("b", "a", -1))
        assert store.unsat
        store.pop()
        assert not store.unsat
        # The surviving frame still constrains: re-adding re-conflicts.
        store.push()
        assert store.assert_bound(DifferenceBound("b", "a", -1))
        store.pop()
        store.pop()

    def test_zero_length_cycle_is_sat(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", 0))  # a <= b
        assert not store.assert_bound(DifferenceBound("b", "a", 0))  # b <= a: a == b
        assert not store.unsat


# ----- GuardPrefix -----------------------------------------------------------


def _guard_sequences():
    p, q = bool_var("p"), bool_var("q")
    x, y, z = int_var("x"), int_var("y"), int_var("z")
    return [
        # boolean complement across pushes
        [p, q, not_(p)],
        # arithmetic cycle across pushes: x < y, y < z, z < x
        [lt(x, y), lt(y, z), lt(z, x)],
        # satisfiable chain
        [p, lt(x, y), lt(y, z)],
        # conjunction guards (one push folds several literals)
        [and_(p, lt(x, y)), and_(q, lt(y, x))],
        # duplicate literals must not break pop bookkeeping
        [p, p, not_(q), lt(x, y), lt(x, y)],
        [TRUE, p, TRUE],
        [FALSE],
    ]


class TestGuardPrefix:
    @pytest.mark.parametrize("guards", _guard_sequences())
    def test_matches_quick_unsat_on_full_conjunction(self, guards):
        """After pushing a whole sequence, the prefix verdict agrees with
        the batch semi-decision procedure on the same conjunction."""
        prefix = GuardPrefix()
        for g in guards:
            prefix.push(g)
        assert prefix.unsat == quick_unsat(and_(*guards))

    @pytest.mark.parametrize("guards", _guard_sequences())
    def test_push_pop_roundtrip(self, guards):
        """Popping everything restores the empty state exactly."""
        prefix = GuardPrefix()
        for g in guards:
            prefix.push(g)
        for _ in guards:
            prefix.pop()
        assert len(prefix) == 0
        assert not prefix.unsat
        assert prefix.fingerprint() == ()

    def test_unsat_clears_on_pop_of_offending_frame(self):
        p = bool_var("p")
        prefix = GuardPrefix()
        prefix.push(p)
        assert prefix.push(not_(p))
        assert prefix.unsat
        prefix.pop()
        assert not prefix.unsat
        prefix.pop()

    def test_prefix_detects_mid_sequence_not_just_at_end(self):
        x, y = int_var("x"), int_var("y")
        prefix = GuardPrefix()
        assert not prefix.push(lt(x, y))
        assert prefix.push(lt(y, x))  # caught at the push, not at a batch check

    def test_fingerprint_reflects_literal_set(self):
        p, q = bool_var("p"), bool_var("q")
        prefix = GuardPrefix()
        prefix.push(p)
        fp1 = prefix.fingerprint()
        prefix.push(q)
        assert prefix.fingerprint() != fp1
        prefix.push(q)  # duplicate: no change
        assert prefix.fingerprint() == (p, q)
        prefix.pop()
        prefix.pop()
        assert prefix.fingerprint() == fp1


# ----- SinkReachabilityIndex -------------------------------------------------


def _graph(edges):
    vfg = ValueFlowGraph()
    for src, dst, kind, *rest in edges:
        callsite = rest[0] if rest else None
        vfg.add_edge(src, dst, TRUE, kind, callsite=callsite)
    return vfg


class TestSinkReachabilityIndex:
    def test_direct_chain(self):
        vfg = _graph([("a", "b", "direct"), ("b", "s", "direct")])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0
        assert index.can_enter("a")
        assert not index.can_enter("unrelated")

    def test_dead_branch_excluded(self):
        vfg = _graph([("a", "b", "direct"), ("a", "dead", "direct")])
        index = SinkReachabilityIndex(vfg, {"b"})
        assert index.can_enter("a")
        assert not index.can_enter("dead")

    def test_ret_edge_requires_budget(self):
        # a -ret-> s: the path pops one base level, so entering `a` with
        # no pops available (inside a forked thread) is inadmissible.
        vfg = _graph([("a", "s", "ret", 7)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 1
        assert index.can_enter("a", avail=INFINITE_AVAIL)
        assert index.can_enter("a", avail=1)
        assert not index.can_enter("a", avail=0)

    def test_call_edge_absorbs_ret(self):
        # a -call-> b -ret-> s: balanced parentheses, zero net need.
        vfg = _graph([("a", "b", "call", 3), ("b", "s", "ret", 3)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0
        assert index.min_need("b") == 1

    def test_fork_edge_rejects_pending_pops(self):
        # a -forkarg-> b -ret-> s: the suffix below the fork needs a pop,
        # but a fork marker can never be popped — `a` is unreachable.
        vfg = _graph([("a", "b", "forkarg", 1), ("b", "s", "ret", 2)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("b") == 1
        assert index.min_need("a") is None
        assert not index.can_enter("a")

    def test_fork_edge_admits_balanced_suffix(self):
        vfg = _graph([("a", "b", "forkarg", 1), ("b", "s", "direct")])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0

    def test_num_sinks_counts_seeds_not_zero_needs(self):
        # The call edge gives `a` need 0 without making it a sink.
        vfg = _graph([("a", "s", "call", 1)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.num_sinks == 1
        assert index.min_need("a") == 0


class TestReachabilityIndexSharing:
    def _indexes_of_run(self, monkeypatch, checkers):
        """(checker name, sink set, index) for every index a run's
        checkers ask for, in checker order."""
        from repro.checkers.base import SourceSinkChecker

        seen = []
        original = SourceSinkChecker._reach_index

        def recording(checker, sinks):
            index = original(checker, sinks)
            seen.append((type(checker).__name__, frozenset(sinks), index))
            return index

        monkeypatch.setattr(SourceSinkChecker, "_reach_index", recording)
        text = (CORPUS / "mixed_all_checkers.mcc").read_text()
        Canary(AnalysisConfig(checkers=checkers)).analyze_source(text)
        return seen

    def test_same_sink_set_shares_one_index(self, monkeypatch):
        # use-after-free and data-race both sink at dereferenced pointers.
        (_a, sinks_a, first), (_b, sinks_b, second) = self._indexes_of_run(
            monkeypatch, ("use-after-free", "data-race")
        )
        assert sinks_a == sinks_b
        assert first is not None and first is second

    def test_distinct_sink_sets_build_separately(self, monkeypatch):
        (_a, sinks_a, first), (_b, sinks_b, second) = self._indexes_of_run(
            monkeypatch, ("use-after-free", "double-free")
        )
        assert sinks_a != sinks_b
        assert first is not second


# ----- end-to-end exactness --------------------------------------------------


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _visits(report):
    return sum(st.get("visits", 0) for st in report.search_statistics.values())


def _unpruned_reference(report, config: AnalysisConfig):
    """(bug keys, visits) of every checker of ``config`` re-run over the
    report's VFG with all three enumeration prunes turned off."""
    bundle = report.bundle
    realizability = RealizabilityChecker(
        bundle,
        solver_max_conflicts=config.solver_max_conflicts,
        order_constraints=config.order_constraints,
        lock_analysis=LockAnalysis(bundle.module) if config.model_locks else None,
        memory_model=config.memory_model,
    )
    limits = SearchLimits(
        max_depth=config.max_path_depth,
        max_paths_per_source=config.max_paths_per_source,
        max_visits=config.max_search_visits,
        context_depth=config.context_depth,
    )
    keys, visits = [], 0
    for name in config.checkers:
        checker = ALL_CHECKERS[name](
            bundle,
            limits=limits,
            realizability=realizability,
            inter_thread_only=config.inter_thread_only,
            max_reports_per_source=config.max_reports_per_source,
            sink_reachability=False,
            guard_pruning=False,
            dead_memo=False,
        )
        keys.extend(b.key for b in checker.run())
        visits += checker.search_stats.visits
    return sorted(keys), visits


class TestPrunedEquivalence:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_same_keys_and_fewer_visits(self, path):
        """The three prunes never change the reported bug keys, and never
        visit more nodes than the reference DFS."""
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        config = AnalysisConfig(checkers=checkers, **overrides)
        pruned = Canary(config).analyze_source(text, filename=path.name, keep_bundle=True)
        ref_keys, ref_visits = _unpruned_reference(pruned, config)
        assert ref_keys == _keys(pruned), path.name
        assert _visits(pruned) <= ref_visits, path.name

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_suppressed_diagnostics_keep_findings(self, path):
        """``collect_suppressed`` turns guard pruning off so that the
        solver sees (and explains) every refuted candidate; the reported
        findings must not change."""
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        base = dict(checkers=checkers, **overrides)
        plain = Canary(AnalysisConfig(**base)).analyze_source(text, filename=path.name)
        diagnosed = Canary(
            AnalysisConfig(collect_suppressed=True, **base)
        ).analyze_source(text, filename=path.name)
        assert sorted((b.key, b.path) for b in diagnosed.bugs) == sorted(
            (b.key, b.path) for b in plain.bugs
        ), path.name
        assert plain.suppressed == []
        assert all(s.reason for s in diagnosed.suppressed), path.name

    @pytest.mark.parametrize(
        "text",
        [
            scaled_program(seed=0, n_groups=10, helpers_per_group=2),
            scaled_program(seed=1, n_groups=10, helpers_per_group=2),
            scaled_program(seed=2, n_groups=10, helpers_per_group=2),
            detection_scaled_program(n_threads=8, n_slots=2, pad_functions=4),
        ],
        ids=["scaled-0", "scaled-1", "scaled-2", "detection-heavy"],
    )
    def test_scaled_subject_same_keys_and_fewer_visits(self, text):
        config = AnalysisConfig()
        pruned = Canary(config).analyze_source(text, keep_bundle=True)
        ref_keys, ref_visits = _unpruned_reference(pruned, config)
        assert ref_keys == _keys(pruned)
        assert ref_keys  # every generated subject has bugs to find
        assert _visits(pruned) <= ref_visits

    def test_pruning_actually_fires_somewhere(self):
        """At least one corpus program exercises each prune counter."""
        totals = {"pruned_unreachable": 0, "pruned_guard": 0}
        for path in CORPUS_FILES:
            text = path.read_text()
            _expects, checkers, overrides = _parse_directives(text)
            report = Canary(
                AnalysisConfig(checkers=checkers, **overrides)
            ).analyze_source(text, filename=path.name)
            for st in report.search_statistics.values():
                for key in totals:
                    totals[key] += st.get(key, 0)
        assert totals["pruned_unreachable"] > 0
        assert totals["pruned_guard"] > 0


def _dead_fanout_program(width: int, depth: int) -> str:
    """One real UAF plus ``width`` copy chains of ``depth`` hops whose
    ends are never dereferenced: only sink reachability keeps the DFS
    out of them."""
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
    """The free happens under ``n >= 3`` and every reader arm is guarded
    by ``n < 3``: the guard prefix refutes each arm at its first edge."""
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


class TestPinnedPruneCounts:
    """Exact counters of the two stress shapes of
    ``benchmarks/test_path_enumeration.py``: the use-after-free checker
    over one VFG, with its three prunes off (reference) and on."""

    def _run(self, text, prune, **overrides):
        report = Canary(AnalysisConfig(checkers=(), **overrides)).analyze_source(
            text, keep_bundle=True
        )
        bundle = report.bundle
        checker = UseAfterFreeChecker(
            bundle, sink_reachability=prune, guard_pruning=prune, dead_memo=prune
        )
        keys = sorted(b.key for b in checker.run())
        return keys, checker.search_stats, checker.realizability.statistics["queries"]

    def test_dead_fanout(self):
        text = _dead_fanout_program(width=12, depth=8)
        ref_keys, ref, ref_queries = self._run(text, prune=False)
        keys, opt, queries = self._run(text, prune=True)
        assert keys == ref_keys and len(keys) == 1
        assert (ref.visits, opt.visits) == (125, 5)
        assert (opt.pruned_unreachable, opt.pruned_guard) == (12, 0)
        assert ref_queries == queries == 1

    def test_guard_diamond(self):
        # prune_guards=False keeps the contradictory arms in the VFG, so
        # only the enumeration-time guard prefix can cut them.
        text = _guard_diamond_program(n_arms=10)
        ref_keys, ref, ref_queries = self._run(text, prune=False, prune_guards=False)
        keys, opt, queries = self._run(text, prune=True, prune_guards=False)
        assert keys == ref_keys == []
        assert (ref.visits, opt.visits) == (23, 3)
        assert (opt.pruned_guard, opt.pruned_unreachable) == (10, 0)
        assert (ref_queries, queries) == (10, 0)


# ----- truncation warnings and config plumbing -------------------------------


class TestTruncationWarnings:
    def test_depth_limit_surfaces_warning(self):
        report = Canary(AnalysisConfig(max_path_depth=1)).analyze_source(SIMPLE_UAF)
        assert any("max_depth" in w for w in report.truncation_warnings)
        assert "warning:" in report.describe_statistics()

    def test_visit_budget_surfaces_warning(self):
        report = Canary(AnalysisConfig(max_search_visits=1)).analyze_source(SIMPLE_UAF)
        assert any("max_visits" in w for w in report.truncation_warnings)

    def test_untruncated_run_has_no_warnings(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert report.truncation_warnings == []

    def test_enumeration_line_in_statistics(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert "enumeration:" in report.describe_statistics()
        assert _visits(report) > 0


class TestCliFlags:
    def test_max_depth_flag_truncates(self, capsys):
        rc = repro_main(
            [str(CORPUS / "uaf_basic.mcc"), "--max-depth", "1", "--stats"]
        )
        out = capsys.readouterr().out
        assert rc == 0  # too shallow to reach the sink: no findings
        assert "max_depth" in out

    def test_max_visits_flag_accepted(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--max-visits", "100000"])
        assert rc == 1
        assert "1 finding(s)" in capsys.readouterr().out

    def test_max_paths_flag_accepted(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--max-paths", "64"])
        assert rc == 1
