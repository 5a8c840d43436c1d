"""Alg. 2's semi-naive rounds against a full recomputation.

:class:`InterferenceAnalysis` re-walks only the objects whose Pted the
previous round's edges can change, and pairs sites only for the objects
it re-walked.  :class:`FullRecompute` is the plain fixpoint: every round
walks every escaped object twice and pairs every object.

Each check runs the real pipeline with the analysis swapped for
:class:`Checked`, which first runs the reference on a copy of the Alg. 1
VFG.  Both share every IR object, so they must agree exactly on:

* ``escaped``, in iteration order;
* every Pted (nodes, guards and order) and ``object_stores``;
* the VFG, with its added edges in ordinal order;
* every ``interference.*`` counter, and ``truncated``;
* the store/load pairs tried by the end of each round: a pair the
  reference tries that the analysis skipped must have been tried in an
  earlier round.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

import pytest

from repro import AnalysisConfig, Canary
from repro.analysis import passes
from repro.obs.metrics import MetricsRegistry
from repro.vfg import interference
from repro.vfg.graph import ObjNode, ValueFlowGraph, VFGEdge
from repro.vfg.interference import InterferenceAnalysis

from fuzz_gen import scaled_program
from test_corpus import CORPUS_FILES, _parse_directives

MODELS = ("sc", "tso", "pso")
#: the default config, and the two Alg. 2 ablations
VARIANTS = ({}, {"use_mhp": False}, {"prune_guards": False})


class _LogsTries(InterferenceAnalysis):
    """Logs every ``_try_edge`` call with the round it ran in, and counts
    the forward walks (one per recomputed Pted)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tries: List[tuple] = []
        self.pted_walks = 0

    def _reach_with_guards(self, origin):
        self.pted_walks += 1
        return super()._reach_with_guards(origin)

    def _try_edge(self, obj, store, alpha, load, beta) -> int:
        self.tries.append((self.rounds, obj, store, alpha, load, beta))
        return super()._try_edge(obj, store, alpha, load, beta)

    def tried_by(self, round_: int) -> set:
        return {entry[1:] for entry in self.tries if entry[0] <= round_}


class FullRecompute(_LogsTries):
    """The fixpoint without reuse: every round recomputes every Pted
    and re-pairs every object."""

    def run(self) -> ValueFlowGraph:
        self._seed_escaped()
        added = 0
        for _ in range(self.max_rounds):
            self.rounds += 1
            self._walk_all()
            self._close_escaped()
            self._walk_all()
            added = self._pair_all()
            if not added:
                break
            self._points_back_cache.clear()
        self.truncated = added > 0
        self._index_object_stores()
        self._publish_metrics()
        return self.vfg

    def _walk_all(self) -> None:
        for obj in self.escaped:
            self.pted[obj] = self._reach_with_guards(ObjNode(obj))

    def _pair_all(self) -> int:
        added = 0
        for obj in list(self.escaped):
            pted = self.pted.get(obj, {})
            if not pted:
                continue
            stores = self._pted_sites(pted, kind="store")
            loads = self._pted_sites(pted, kind="load")
            for store, alpha in stores:
                for load, beta in loads:
                    added += self._try_edge(obj, store, alpha, load, beta)
        self.edges_added += added
        return added


def _clone(vfg: ValueFlowGraph) -> ValueFlowGraph:
    """An independent graph with the same nodes, edges and order."""
    twin = ValueFlowGraph()
    twin._nodes = {
        node: (canonical, list(out), list(inc))
        for node, (canonical, out, inc) in vfg._nodes.items()
    }
    twin._edge_keys = set(vfg._edge_keys)
    twin.num_edges = vfg.num_edges
    return twin


def _record_added(vfg: ValueFlowGraph) -> List[Tuple[int, VFGEdge]]:
    """Every edge ``vfg`` accepts from now on, with its ordinal."""
    added: List[Tuple[int, VFGEdge]] = []
    add_edge = vfg.add_edge

    def recording(*args, **kwargs):
        edge = add_edge(*args, **kwargs)
        if edge is not None:
            added.append((vfg.num_edges - 1, edge))
        return edge

    vfg.add_edge = recording
    return added


def _counters(registry: MetricsRegistry) -> dict:
    return {
        key: value
        for key, value in registry.snapshot().items()
        if key.startswith("interference.")
    }


def _adjacency(vfg: ValueFlowGraph) -> list:
    return [(node, vfg.out_edges(node), vfg.in_edges(node)) for node in vfg.nodes()]


class Checked(_LogsTries):
    """The real analysis, checked against :class:`FullRecompute` run on a
    copy of the same Alg. 1 output."""

    #: (reference, checked) pairs of every run since the last reset
    runs: List[Tuple[InterferenceAnalysis, InterferenceAnalysis]] = []

    def run(self) -> ValueFlowGraph:
        ref_flow = copy.copy(self.dataflow)
        ref_flow.vfg = _clone(self.vfg)
        ref = FullRecompute(
            ref_flow,
            self.mhp,
            max_rounds=self.max_rounds,
            use_mhp=self.use_mhp,
            prune_guards=self.prune_guards,
            metrics=MetricsRegistry(),
        )
        ref_added = _record_added(ref.vfg)
        ref.run()
        self.metrics = MetricsRegistry()
        added = _record_added(self.vfg)
        vfg = super().run()

        assert list(self.escaped) == list(ref.escaped)
        assert list(self.pted) == list(ref.pted)
        for obj, pted in ref.pted.items():
            assert list(self.pted[obj].items()) == list(pted.items()), obj
        assert list(self.object_stores.items()) == list(ref.object_stores.items())
        assert added == ref_added
        assert self.vfg.num_edges == ref.vfg.num_edges
        assert _adjacency(self.vfg) == _adjacency(ref.vfg)
        assert _counters(self.metrics) == _counters(ref.metrics)
        assert self.truncated == ref.truncated
        assert self.pted_walks <= ref.pted_walks
        for round_ in range(1, ref.rounds + 1):
            assert self.tried_by(round_) == ref.tried_by(round_), round_
        Checked.runs.append((ref, self))
        return vfg


@pytest.fixture()
def checked(monkeypatch):
    monkeypatch.setattr(passes, "InterferenceAnalysis", Checked)
    Checked.runs = []
    yield Checked.runs
    Checked.runs = []


def _analyze(text: str, **config) -> None:
    Canary(AnalysisConfig(**config)).analyze_source(text)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_file_every_model_and_ablation(path, checked):
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    for model in MODELS:
        for variant in VARIANTS:
            config = {**overrides, **variant, "memory_model": model}
            _analyze(text, checkers=checkers, **config)
    assert len(checked) == len(MODELS) * len(VARIANTS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_program(seed, checked):
    _analyze(scaled_program(seed=seed, n_groups=6, helpers_per_group=3))
    [(ref, new)] = checked
    # A round after the first re-walks only what the last edges reach.
    assert ref.rounds >= 2
    assert new.pted_walks < ref.pted_walks


@pytest.mark.parametrize("cap", [1, 2])
def test_widening_recounted_for_kept_pted(cap, checked, monkeypatch):
    # No input widens at the default cap; a low cap makes kept Pted sets
    # re-count the widenings of their last walk.
    monkeypatch.setattr(interference, "_GUARD_UPDATE_CAP", cap)
    for path in CORPUS_FILES:
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        _analyze(text, checkers=checkers, **overrides)
    for seed in (0, 1, 2):
        _analyze(scaled_program(seed=seed, n_groups=6, helpers_per_group=3))
    if cap == 1:
        # Some run both widened and kept a Pted, so the re-count ran.
        assert any(
            new.widenings and new.pted_walks < ref.pted_walks for ref, new in checked
        )


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_round_cap(rounds, checked):
    text = (CORPUS_FILES[0].parent / "uaf_summary_chained_escape.mcc").read_text()
    _analyze(text, max_interference_rounds=rounds)
    [(ref, new)] = checked
    assert new.truncated == ref.truncated == (rounds < 3)
