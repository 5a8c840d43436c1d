"""Tests for the Andersen/flow-sensitive analyses and the baselines."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.frontend import parse_program
from repro.ir import AllocInst, ForkInst, LoadInst, StoreInst
from repro.lowering import lower_program
from repro.pointer.andersen import andersen
from repro.pointer.flowsensitive import flow_sensitive_pointsto
from repro.baselines import FsamBaseline, SaberBaseline
from repro import Canary

from programs import FIG2_BUGGY, FIG2_BUG_FREE, SIMPLE_UAF
from test_corpus import CORPUS_FILES

# A cycle through memory: *a's content flows into *b and back.
MEMORY_CYCLE = """
void main() {
    int** a = malloc();
    int** b = malloc();
    int* x = malloc();
    *a = x;
    int* va = *a;
    *b = va;
    int* vb = *b;
    *a = vb;
    int* final = *a;
}
"""


def lower(src):
    return lower_program(parse_program(src))


def find(module, func, cls, nth=0):
    return [i for i in module.functions[func].body if isinstance(i, cls)][nth]


def defined_vars(module):
    return {
        var.name: var
        for func in module.functions.values()
        for inst in func.body
        for var in (inst.defined_var(),)
        if var is not None
    }


class TestAndersen:
    def test_alloc_and_copy(self):
        module = lower("void main() { int* p = malloc(); int* q = p; }")
        pts = andersen(module)
        body = module.functions["main"].body
        p = body[1].dst  # copy into source var p
        q = body[2].dst
        assert pts.points_to(p) == pts.points_to(q)
        assert len(pts.points_to(p)) == 1

    def test_store_load_through_memory(self):
        module = lower(
            "void main() { int** x = malloc(); int* a = malloc(); *x = a; int* c = *x; }"
        )
        pts = andersen(module)
        load = find(module, "main", LoadInst)
        a_objs = pts.points_to(find(module, "main", StoreInst).value)
        assert a_objs and a_objs <= pts.points_to(load.dst)

    def test_flow_insensitive_weakness(self):
        # Andersen merges both stores regardless of order: the load sees both.
        module = lower(
            """
            void main() {
                int** x = malloc();
                int* a = malloc();
                int* b = malloc();
                *x = a;
                int* c = *x;
                *x = b;
            }
            """
        )
        pts = andersen(module)
        load = find(module, "main", LoadInst)
        assert len(pts.points_to(load.dst)) == 2  # sees a's and b's objects

    def test_interprocedural(self):
        module = lower(
            """
            int* id(int* v) { return v; }
            void main() { int* p = malloc(); int* q = id(p); }
            """
        )
        pts = andersen(module)
        main = module.functions["main"]
        q = main.body[-1].dst
        assert len(pts.points_to(q)) == 1

    def test_may_alias(self):
        module = lower("void main() { int* p = malloc(); int* q = p; *q = 1; }")
        pts = andersen(module)
        body = module.functions["main"].body
        assert pts.may_alias(body[1].dst, body[2].dst)

    def test_cycle_through_memory(self):
        module = lower(MEMORY_CYCLE)
        pts = andersen(module)
        obj_a, obj_b, obj_x = (
            find(module, "main", AllocInst, n).obj for n in range(3)
        )
        vars_ = defined_vars(module)
        assert pts.points_to(vars_["main::a"]) == {obj_a}
        assert pts.points_to(vars_["main::b"]) == {obj_b}
        for name in ("x", "va", "vb", "final"):
            assert pts.points_to(vars_[f"main::{name}"]) == {obj_x}, name
        assert pts.points_to(obj_a) == {obj_x}
        assert pts.points_to(obj_b) == {obj_x}
        assert pts.points_to(obj_x) == frozenset()
        assert pts.total_facts == 14

    def test_callees_through_function_pointer(self):
        module = lower(
            """
            void work() {}
            void main() {
                int* fp = work;
                fork(t, fp);
            }
            """
        )
        fork = find(module, "main", ForkInst)
        assert andersen(module).callees(fork.callee) == {"work"}

    def test_expired_deadline_gives_partial_result(self):
        module = lower(MEMORY_CYCLE)
        full = andersen(module)
        partial = andersen(module, deadline=time.perf_counter() - 1)
        nodes = list(defined_vars(module).values()) + [
            find(module, "main", AllocInst, n).obj for n in range(3)
        ]
        for node in nodes:
            assert partial.points_to(node) <= full.points_to(node), node
        assert partial.total_facts < full.total_facts


class TestFlowSensitive:
    def test_strong_update_precision(self):
        # Flow-sensitive: the load between the stores sees only 'a'.
        module = lower(
            """
            void main() {
                int** x = malloc();
                int* a = malloc();
                int* b = malloc();
                *x = a;
                int* c = *x;
                *x = b;
            }
            """
        )
        pts = flow_sensitive_pointsto(module)
        load = find(module, "main", LoadInst)
        a_obj = next(iter(pts.points_to(find(module, "main", StoreInst, 0).value)))
        assert a_obj in pts.points_to(load.dst)
        # ... and is strictly more precise than Andersen here:
        assert len(pts.points_to(load.dst)) == 1

    def test_cross_thread_flow(self):
        module = lower(SIMPLE_UAF)
        pts = flow_sensitive_pointsto(module)
        load_main = find(module, "main", LoadInst)
        worker_alloc_obj = module.functions["worker"].body[0].obj
        assert worker_alloc_obj in pts.points_to(load_main.dst)

    def test_iterates_to_fixpoint(self):
        module = lower(SIMPLE_UAF)
        pts = flow_sensitive_pointsto(module)
        assert 1 <= pts.iterations <= 20

    def test_memory_snapshots_exist(self):
        module = lower(SIMPLE_UAF)
        pts = flow_sensitive_pointsto(module)
        assert pts.total_facts > 0
        assert len(pts.memory_at) > 0


class TestSaberBaseline:
    def test_reports_real_bug(self):
        result = SaberBaseline().detect_uaf(lower(SIMPLE_UAF))
        assert len(result.reports) >= 1

    def test_reports_guard_infeasible_fp(self):
        # The crux of Table 1: Saber flags the paper's bug-free Fig. 2.
        result = SaberBaseline().detect_uaf(lower(FIG2_BUG_FREE))
        canary = Canary().analyze_source(FIG2_BUG_FREE)
        assert len(result.reports) >= 1  # false positive
        assert canary.num_reports == 0  # Canary: no report

    def test_vfg_stats_populated(self):
        result = SaberBaseline().detect_uaf(lower(SIMPLE_UAF))
        assert result.vfg_edges > 0
        assert result.pointsto_facts > 0
        assert result.build_seconds >= 0

    def test_time_budget_timeout(self):
        result = SaberBaseline(time_budget=0.0).detect_uaf(lower(SIMPLE_UAF))
        assert result.timed_out


class TestFsamBaseline:
    def test_reports_real_bug(self):
        result = FsamBaseline().detect_uaf(lower(SIMPLE_UAF))
        assert len(result.reports) >= 1

    def test_reports_guard_infeasible_fp(self):
        result = FsamBaseline().detect_uaf(lower(FIG2_BUG_FREE))
        assert len(result.reports) >= 1  # no path sensitivity: FP

    @pytest.mark.parametrize(
        "source",
        [FIG2_BUGGY] + [path.read_text() for path in CORPUS_FILES],
        ids=["fig2_buggy"] + [path.stem for path in CORPUS_FILES],
    )
    def test_not_more_reports_than_saber(self, source):
        # FSAM refines Saber: it reports no pair that Saber does not.
        module = lower(source)
        saber = SaberBaseline().detect_uaf(module)
        fsam = FsamBaseline().detect_uaf(module)
        assert {r.key for r in fsam.reports} <= {r.key for r in saber.reports}

    def test_stats(self):
        result = FsamBaseline().detect_uaf(lower(SIMPLE_UAF))
        assert result.iterations >= 1
        assert result.vfg_edges > 0


# Saber and FSAM over every corpus file and two quick-profile subjects,
# printed as one JSON list of report keys per (input, tool), in order.
_KEY_DUMP = """
import json, sys
from repro.baselines import FsamBaseline, SaberBaseline
from repro.bench import PROFILES, SUBJECTS, prepare_subject
from repro.frontend import parse_program
from repro.lowering import lower_program

modules = [lower_program(parse_program(open(p).read())) for p in sys.argv[1:]]
by_name = {s.name: s for s in SUBJECTS}
modules += [prepare_subject(by_name[n], PROFILES["quick"])[0] for n in ("lrzip", "coturn")]
print(json.dumps([
    [list(r.key) for r in tool().detect_uaf(module).reports]
    for module in modules
    for tool in (SaberBaseline, FsamBaseline)
]))
"""


def test_report_order_is_the_same_in_every_process():
    # Baseline reports list each free site's uses in ascending label
    # order, not in the order a set of identity-hashed variables yields.
    files = [str(p) for p in CORPUS_FILES]
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    dumps = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _KEY_DUMP, *files],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
    assert any(json.loads(dumps[0]))


@pytest.mark.parametrize("tool", [SaberBaseline, FsamBaseline])
def test_reports_follow_free_sites_then_use_labels(tool):
    # free sites in module order; each one's uses in ascending label
    checked = 0
    for path in CORPUS_FILES:
        module = lower(path.read_text())
        body = [i for f in module.functions.values() for i in f.body]
        free_order = {i.label: n for n, i in enumerate(body)}
        keys = [r.key for r in tool().detect_uaf(module).reports]
        assert keys == sorted(keys, key=lambda k: (free_order[k[0]], k[1]))
        assert len(set(keys)) == len(keys)
        checked += len(keys)
    assert checked
