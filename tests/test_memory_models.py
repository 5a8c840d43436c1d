"""Tests for the relaxed-memory extension (paper future work 2)."""

import pytest

from repro import AnalysisConfig, Canary
from repro.detection import OrderConstraintBuilder
from repro.frontend import parse_program
from repro.ir import LoadInst, StoreInst
from repro.lowering import lower_program
from repro.smt import TRUE
from repro.vfg import build_vfg

from programs import FIG2_BUGGY, FIG2_BUG_FREE, SIMPLE_UAF
from test_corpus import CORPUS_FILES, _parse_directives

# Two stores through *different pointer names*; the reader thread is
# forked after both.  Under SC the first store's value is dead before the
# fork, so freeing it is harmless.  Under PSO the stores may reorder, so
# the reader may observe the freed value.
PSO_SENSITIVE = """
void main() {
    int** slot = malloc();
    int** alias = slot;
    int* old = malloc();
    int* fresh = malloc();
    *slot = old;
    *alias = fresh;
    fork(t, user, slot);
    free(old);
}

void user(int** s) {
    int* v = *s;
    print(*v);
}
"""


def lower(src):
    return lower_program(parse_program(src))


def analyze(src, model):
    return Canary(AnalysisConfig(memory_model=model)).analyze_source(src)


class TestRelaxationClassification:
    @pytest.fixture()
    def pair(self):
        module = lower(
            """
            void main(int** a, int** b) {
                int* v = *b;
                *a = v;
                int* w = *b;
                *b = w;
            }
            """
        )
        bundle = build_vfg(module)
        body = module.functions["main"].body
        store_a = next(i for i in body if isinstance(i, StoreInst))
        load_after = [i for i in body if isinstance(i, LoadInst)][1]
        store_b = [i for i in body if isinstance(i, StoreInst)][1]
        return bundle, store_a, load_after, store_b

    def test_sc_keeps_all_orders(self, pair):
        bundle, store_a, load_after, store_b = pair
        builder = OrderConstraintBuilder(bundle, memory_model="sc")
        assert builder.program_order_pair(store_a, load_after) is not TRUE
        assert builder.program_order_pair(store_a, store_b) is not TRUE

    def test_tso_relaxes_store_load(self, pair):
        bundle, store_a, load_after, store_b = pair
        builder = OrderConstraintBuilder(bundle, memory_model="tso")
        assert builder.program_order_pair(store_a, load_after) is TRUE
        # ... but not store-store:
        assert builder.program_order_pair(store_a, store_b) is not TRUE

    def test_pso_relaxes_store_store_too(self, pair):
        bundle, store_a, load_after, store_b = pair
        builder = OrderConstraintBuilder(bundle, memory_model="pso")
        assert builder.program_order_pair(store_a, load_after) is TRUE
        assert builder.program_order_pair(store_a, store_b) is TRUE

    def test_same_pointer_stays_ordered(self):
        # Coherence: accesses through the identical pointer never relax.
        module = lower("void main(int** a) { *a = 1; int* v = *a; }")
        bundle = build_vfg(module)
        body = module.functions["main"].body
        store = next(i for i in body if isinstance(i, StoreInst))
        load = next(i for i in body if isinstance(i, LoadInst))
        builder = OrderConstraintBuilder(bundle, memory_model="pso")
        assert builder.program_order_pair(store, load) is not TRUE

    def test_unknown_model_rejected(self):
        module = lower("void main() {}")
        bundle = build_vfg(module)
        with pytest.raises(ValueError):
            OrderConstraintBuilder(bundle, memory_model="arm")


class TestEndToEnd:
    def test_pso_exposes_reordering_bug(self):
        sc = analyze(PSO_SENSITIVE, "sc")
        pso = analyze(PSO_SENSITIVE, "pso")
        assert sc.num_reports == 0, "under SC the old value is overwritten pre-fork"
        assert pso.num_reports >= 1, "store-store reordering exposes the freed value"

    def test_monotonicity_sc_tso_pso(self):
        # Relaxing the model can only add behaviors, never remove reports.
        for src in (FIG2_BUG_FREE, FIG2_BUGGY, SIMPLE_UAF, PSO_SENSITIVE):
            r_sc = analyze(src, "sc").num_reports
            r_tso = analyze(src, "tso").num_reports
            r_pso = analyze(src, "pso").num_reports
            assert r_sc <= r_tso <= r_pso

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_keys_monotone_sc_tso_pso(self, path):
        # The same contract over the corpus, on bug keys rather than
        # counts: every SC finding survives under TSO, every TSO finding
        # under PSO.
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        overrides.pop("memory_model", None)
        keys = []
        for model in ("sc", "tso", "pso"):
            config = AnalysisConfig(
                checkers=checkers, memory_model=model, use_cache=False, **overrides
            )
            report = Canary(config).analyze_source(text, filename=path.name)
            keys.append({b.key for b in report.bugs})
        sc, tso, pso = keys
        assert sc <= tso <= pso, path.name

    def test_fig2_still_pruned_under_pso(self):
        # Guard contradiction is model-independent.
        assert analyze(FIG2_BUG_FREE, "pso").num_reports == 0

    def test_config_default_is_sc(self):
        assert AnalysisConfig().memory_model == "sc"
