"""Tests: IR verifier, VFG export, report serialization, solver push/pop."""

import json

import pytest

from repro import AnalysisConfig, Canary
from repro.checkers import report_to_dict, report_to_json, report_to_sarif
from repro.frontend import parse_program
from repro.ir import IRModule, verify_module
from repro.ir.instructions import CopyInst, LoadInst
from repro.ir.values import IntConstant, Variable, fresh_variable
from repro.lowering import lower_program
from repro.smt.terms import TRUE
from repro.vfg import to_dot, to_json

from programs import FIG2_BUGGY, FIG2_BUG_FREE, SIMPLE_UAF, THROUGH_CALL, bundle_for


def lower(src):
    return lower_program(parse_program(src))


class TestVerifier:
    @pytest.mark.parametrize(
        "src", [FIG2_BUG_FREE, FIG2_BUGGY, SIMPLE_UAF, THROUGH_CALL]
    )
    def test_lowered_modules_verify(self, src):
        report = verify_module(lower(src))
        assert report.ok, report.describe()

    def test_generated_projects_verify(self):
        from repro.bench import ProjectSpec, generate_project

        source, _ = generate_project(
            ProjectSpec(name="v", target_lines=600, real_bugs=1, seed=3)
        )
        report = verify_module(lower(source))
        assert report.ok, report.describe()

    def test_detects_ssa_violation(self):
        module = lower("void main() { int x = 1; }")
        func = module.functions["main"]
        # Manually break SSA: redefine an existing variable.
        existing = func.body[0].dst
        bad = CopyInst(
            label=module.new_label(),
            guard=TRUE,
            location=func.body[0].location,
            dst=existing,
            src=IntConstant(2),
        )
        func.body.append(bad)
        module.register(bad, "main")
        report = verify_module(module)
        assert not report.ok
        assert any("SSA violation" in e for e in report.errors)

    def test_detects_unregistered_label(self):
        module = lower("void main() { int x = 1; }")
        func = module.functions["main"]
        rogue = CopyInst(
            label=99_999,
            guard=TRUE,
            location=func.body[0].location,
            dst=fresh_variable("rogue"),
            src=IntConstant(1),
        )
        func.body.append(rogue)  # not registered
        report = verify_module(module)
        assert any("not registered" in e for e in report.errors)

    def test_strict_mode_raises(self):
        from repro.ir import VerificationError

        module = lower("void main() { int x = 1; }")
        func = module.functions["main"]
        bad = CopyInst(
            label=module.new_label(),
            guard=TRUE,
            location=func.body[0].location,
            dst=func.body[0].dst,
            src=IntConstant(2),
        )
        func.body.append(bad)
        module.register(bad, "main")
        with pytest.raises(VerificationError):
            verify_module(module, strict=True)

    def test_integer_pointer_flagged(self):
        module = lower("void main() { int* p = malloc(); }")
        func = module.functions["main"]
        bad = LoadInst(
            label=module.new_label(),
            guard=TRUE,
            location=func.body[0].location,
            dst=fresh_variable("v"),
            pointer=IntConstant(3),
        )
        func.body.append(bad)
        module.register(bad, "main")
        report = verify_module(module)
        assert any("integer used as pointer" in e for e in report.errors)


class TestVfgExport:
    def test_dot_contains_nodes_and_edges(self):
        bundle = bundle_for(FIG2_BUGGY)
        dot = to_dot(bundle.vfg)
        assert dot.startswith("digraph vfg {")
        assert dot.rstrip().endswith("}")
        assert "style=dashed" in dot  # the interference edge
        assert "store@" in dot

    def test_dot_guard_labels(self):
        bundle = bundle_for(FIG2_BUGGY)
        dot = to_dot(bundle.vfg)
        assert "theta1" in dot

    def test_json_round_trips(self):
        bundle = bundle_for(SIMPLE_UAF)
        data = json.loads(to_json(bundle.vfg))
        assert len(data["nodes"]) == bundle.vfg.num_nodes
        assert len(data["edges"]) == bundle.vfg.num_edges
        kinds = {e["kind"] for e in data["edges"]}
        assert "alloc" in kinds and "load" in kinds

    def test_json_flags_interference(self):
        bundle = bundle_for(FIG2_BUGGY)
        data = json.loads(to_json(bundle.vfg))
        assert any(e["interthread"] for e in data["edges"])


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        return Canary().analyze_source(SIMPLE_UAF, filename="simple.mcc")

    def test_dict_shape(self, report):
        data = report_to_dict(report)
        assert data["tool"] == "canary-repro"
        assert len(data["bugs"]) == report.num_reports
        bug = data["bugs"][0]
        assert bug["kind"] == "use-after-free"
        assert bug["source"]["file"] == "simple.mcc"
        assert bug["witness_interleaving"]

    def test_json_parses(self, report):
        data = json.loads(report_to_json(report))
        assert data["bugs"]

    def test_sarif_structure(self, report):
        sarif = report_to_sarif(report)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "canary-repro"
        assert len(run["results"]) == report.num_reports
        result = run["results"][0]
        assert result["ruleId"] == "use-after-free"
        flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(flow) >= 1

    def test_sarif_empty_report(self):
        clean = Canary().analyze_source(FIG2_BUG_FREE)
        sarif = report_to_sarif(clean)
        assert sarif["runs"][0]["results"] == []


class TestSuppressionExplanation:
    def test_guard_contradiction_classified(self):
        # Arithmetic (non-syntactic) contradiction so that only the solver
        # — not the term constructors — can refute it; guard pruning is
        # disabled so the candidate survives to the checking stage.
        src = FIG2_BUG_FREE.replace("if (theta1)", "if (theta1 > 1)").replace(
            "if (!theta1)", "if (theta1 < 1)"
        )
        config = AnalysisConfig(collect_suppressed=True, prune_guards=False)
        report = Canary(config).analyze_source(src)
        assert report.num_reports == 0
        reasons = {s.reason for s in report.suppressed}
        assert "guard-contradiction" in reasons

    def test_order_violation_classified(self):
        src = """
        void main() {
            int** x = malloc();
            int* a = malloc();
            *x = a;
            fork(t, w, x);
            join(t);
            int* v = *x;
            print(*v);
        }
        void w(int** s) {
            int* old = *s;
            int* fresh = malloc();
            *s = fresh;
            free(old);
        }
        """
        config = AnalysisConfig(collect_suppressed=True)
        report = Canary(config).analyze_source(src)
        reasons = {s.reason for s in report.suppressed}
        assert "order-violation" in reasons

    def test_suppressed_empty_by_default(self):
        report = Canary().analyze_source(FIG2_BUG_FREE)
        assert report.suppressed == []

    def test_describe(self):
        src = FIG2_BUG_FREE.replace("if (theta1)", "if (theta1 > 1)").replace(
            "if (!theta1)", "if (theta1 < 1)"
        )
        config = AnalysisConfig(collect_suppressed=True, prune_guards=False)
        report = Canary(config).analyze_source(src)
        assert report.suppressed
        text = report.suppressed[0].describe()
        assert "suppressed" in text
