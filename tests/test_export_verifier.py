"""Coverage for the VFG exporters (``repro.vfg.export``) and the IR
well-formedness verifier (``repro.ir.verifier``)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import AnalysisConfig, Canary
from repro.ir.instructions import CopyInst, JoinInst, LoadInst
from repro.ir.values import IntConstant, fresh_variable
from repro.ir.verifier import VerificationError, verify_module
from repro.lowering import lower_program
from repro.frontend import parse_program
from repro.smt.terms import FALSE
from repro.vfg.export import to_dot, to_json

CORPUS = pathlib.Path(__file__).parent / "corpus"

INTER_THREAD_UAF = """
int *g;

void writer(int *p) {
  *p = 5;
  g = p;
}

void reader() {
  int x;
  x = *g;
  print(x);
}

int main() {
  int *h;
  h = malloc(4);
  fork(t1, writer, h);
  fork(t2, reader);
  join(t1);
  join(t2);
  return 0;
}
"""


@pytest.fixture(scope="module")
def bundle():
    report = Canary(AnalysisConfig()).analyze_source(INTER_THREAD_UAF, keep_bundle=True)
    assert report.bundle is not None
    return report.bundle


@pytest.fixture()
def module():
    return lower_program(parse_program(INTER_THREAD_UAF, "uaf.mcc"))


# ----- export: DOT -----------------------------------------------------------


class TestToDot:
    def test_shape_of_the_document(self, bundle):
        dot = to_dot(bundle.vfg)
        assert dot.startswith("digraph vfg {")
        assert dot.rstrip().endswith("}")
        assert "rankdir=LR;" in dot

    def test_every_node_and_edge_is_rendered(self, bundle):
        dot = to_dot(bundle.vfg)
        node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == bundle.vfg.num_nodes
        assert len(edge_lines) == bundle.vfg.num_edges

    def test_node_styles_by_type(self, bundle):
        dot = to_dot(bundle.vfg)
        assert "shape=box, style=filled" in dot  # ObjNode (heap object / global)
        assert "shape=oval" in dot  # StoreNode (g = malloc store)
        assert "shape=ellipse" in dot  # DefNode

    def test_interference_edges_are_dashed(self, bundle):
        assert any(e.interthread for e in bundle.vfg.edges())
        assert "style=dashed, color=red" in to_dot(bundle.vfg)

    def test_fork_binding_edges_are_blue(self, bundle):
        assert "color=blue" in to_dot(bundle.vfg)

    def test_long_guards_are_truncated(self):
        text = (CORPUS / "uaf_guarded_infeasible.mcc").read_text()
        report = Canary(AnalysisConfig()).analyze_source(text, keep_bundle=True)
        vfg = report.bundle.vfg
        assert any(len(e.guard.pretty()) > 5 for e in vfg.edges())
        assert "…" in to_dot(vfg, max_guard_len=5)


# ----- export: JSON ----------------------------------------------------------


class TestToJson:
    def test_round_trips_through_json(self, bundle):
        data = json.loads(to_json(bundle.vfg))
        assert set(data) == {"nodes", "edges"}
        assert len(data["nodes"]) == bundle.vfg.num_nodes
        assert len(data["edges"]) == bundle.vfg.num_edges

    def test_edges_reference_declared_nodes(self, bundle):
        data = json.loads(to_json(bundle.vfg))
        ids = {n["id"] for n in data["nodes"]}
        assert len(ids) == len(data["nodes"])  # ids are unique
        for edge in data["edges"]:
            assert edge["src"] in ids and edge["dst"] in ids

    def test_node_types_and_labels(self, bundle):
        data = json.loads(to_json(bundle.vfg))
        types = {n["type"] for n in data["nodes"]}
        assert {"object", "store", "def"} <= types
        for node in data["nodes"]:
            if node["type"] == "object":
                assert node["object_kind"] in ("heap", "global", "stack", "formal")
            elif node["type"] in ("store", "null"):
                assert isinstance(node["label"], int)

    def test_edge_payload(self, bundle):
        data = json.loads(to_json(bundle.vfg))
        kinds = {e["kind"] for e in data["edges"]}
        assert "load" in kinds and "forkarg" in kinds
        assert any(e["interthread"] for e in data["edges"])
        for edge in data["edges"]:
            if edge["kind"] in ("call", "ret", "forkarg"):
                assert isinstance(edge["callsite"], int)
            assert isinstance(edge["guard"], str)


# ----- verifier --------------------------------------------------------------


def _loc(module):
    return next(module.all_instructions()).location


class TestVerifier:
    def test_lowered_corpus_module_is_well_formed(self):
        for path in sorted(CORPUS.glob("*.mcc"))[:5]:
            module = lower_program(parse_program(path.read_text(), path.name))
            report = verify_module(module)
            assert report.ok, f"{path.name}: {report.describe()}"
            assert report.describe() == "ok" or "warning" in report.describe()

    def test_duplicate_label(self, module):
        func = module.functions["main"]
        first = func.body[0]
        clone = CopyInst(
            label=first.label,
            guard=first.guard,
            location=first.location,
            dst=fresh_variable("dup"),
            src=IntConstant(1),
        )
        func.body.append(clone)
        report = verify_module(module)
        assert not report.ok
        assert any("duplicate label" in e for e in report.errors)

    def test_unregistered_label(self, module):
        label = module.functions["main"].body[0].label
        del module._labels[label]
        report = verify_module(module)
        assert any("not registered" in e for e in report.errors)

    def test_label_registered_to_other_instruction(self, module):
        body = module.functions["main"].body
        module._labels[body[0].label] = body[1]
        report = verify_module(module)
        assert any("registered to a different instruction" in e for e in report.errors)

    def test_ssa_redefinition(self, module):
        func = module.functions["main"]
        defined = next(
            i.defined_var() for i in func.body if i.defined_var() is not None
        )
        label = module.new_label()
        dup = CopyInst(
            label=label,
            guard=func.body[0].guard,
            location=_loc(module),
            dst=defined,
            src=IntConstant(0),
        )
        func.body.append(dup)
        module.register(dup, "main")
        report = verify_module(module)
        assert any("SSA violation" in e for e in report.errors)

    def test_false_guard_is_a_dead_code_warning(self, module):
        module.functions["main"].body[0].guard = FALSE
        report = verify_module(module)
        assert report.ok  # warning, not error
        assert any("dead instruction" in w for w in report.warnings)

    def test_integer_used_as_pointer(self, module):
        label = module.new_label()
        bad = LoadInst(
            label=label,
            guard=module.functions["main"].body[0].guard,
            location=_loc(module),
            dst=fresh_variable("x"),
            pointer=IntConstant(5),
        )
        module.functions["main"].body.append(bad)
        module.register(bad, "main")
        report = verify_module(module)
        assert any("integer used as pointer" in e for e in report.errors)

    def test_join_without_fork_warns(self, module):
        label = module.new_label()
        join = JoinInst(
            label=label,
            guard=module.functions["writer"].body[0].guard,
            location=_loc(module),
            thread="phantom",
        )
        module.functions["writer"].body.append(join)
        module.register(join, "writer")
        report = verify_module(module)
        assert report.ok
        assert any("without a" in w and "phantom" in w for w in report.warnings)

    def test_strict_raises_on_error(self, module):
        label = module.functions["main"].body[0].label
        del module._labels[label]
        with pytest.raises(VerificationError):
            verify_module(module, strict=True)

    def test_verification_runs_as_a_pipeline_pass(self):
        report = Canary(AnalysisConfig()).analyze_source(INTER_THREAD_UAF)
        rows = {p["name"]: p for p in report.pass_statistics}
        assert "verify" in rows
        assert rows["verify"]["detail"].startswith("0 error(s)")
