"""Cross-run identity: independent processes must mint byte-identical
IR names, VFGs (nodes, edges and guards), VFG summaries, and bug keys.

Labels, SSA names and guards must not depend on hash seed, import order,
or interning state: the daemon's ``/reports/<id>`` payloads name
instructions by label, and the pinned digests
(``tests/data/phi_digests.json``, ``solve_digests.json``) are checked in
whatever process runs the suite, so both mean something only if a label
names the same instruction in every process.  The subprocess tests run
the full pipeline twice under *different* ``PYTHONHASHSEED`` values and
compare JSON dumps byte for byte.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.ir.values import VariableNamer

from test_corpus import CORPUS_FILES

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

DRIVER = textwrap.dedent(
    """
    import json, sys
    from repro import AnalysisConfig, Canary
    from repro.vfg.export import to_json

    text = open(sys.argv[1]).read()
    rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(text, keep_bundle=True)
    print(json.dumps({
        "keys": sorted(str(b.key) for b in rep.bugs),
        "vfg": rep.vfg_summary,
        "graph": to_json(rep.bundle.vfg),
        "vars": sorted(
            v.name
            for fn in rep.bundle.module.functions.values()
            for inst in fn.body
            if (v := getattr(inst, "target", None)) is not None
        ),
    }, sort_keys=True))
    """
)


def _pipeline_dump(path, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


class TestVariableNamer:
    def test_names_are_pure_functions_of_scope_prefix_ordinal(self):
        a = VariableNamer("f")
        b = VariableNamer("f")
        seq_a = [a.fresh("tmp").name, a.fresh("tmp").name, a.fresh("phi").name]
        seq_b = [b.fresh("tmp").name, b.fresh("tmp").name, b.fresh("phi").name]
        assert seq_a == seq_b == ["f::tmp", "f::tmp#1", "f::phi"]

    def test_scopes_do_not_collide(self):
        assert VariableNamer("f").fresh("tmp").name != VariableNamer("g").fresh("tmp").name

    def test_source_name_passthrough(self):
        v = VariableNamer("f").fresh("load", source_name="p")
        assert v.name == "f::load"
        assert v.source_name == "p"

    def test_separators_cannot_occur_in_identifiers(self):
        # ``::`` and ``#`` are not legal MiniCC identifier characters, so
        # scoped names can never collide with user variables.
        v = VariableNamer("worker").fresh("tmp")
        assert "::" in v.name


class TestCrossProcess:
    @pytest.mark.parametrize("stem", ["uaf_basic", "mixed_all_checkers"])
    def test_two_processes_differ_only_in_hashseed(self, stem):
        path = next(p for p in CORPUS_FILES if p.stem == stem)
        first = _pipeline_dump(path, "1")
        second = _pipeline_dump(path, "4242")
        assert first == second
        payload = json.loads(first)
        assert json.loads(payload["graph"])["edges"]
        assert all("::" in name for name in payload["vars"] if "::" in name)

    def test_full_corpus_vfgs_stable(self, tmp_path):
        # One subprocess per seed over the whole corpus (batched in a
        # single interpreter each, to keep this test affordable).
        batch = textwrap.dedent(
            """
            import json, sys
            from repro import AnalysisConfig, Canary
            from repro.vfg.export import to_json
            out = {}
            for path in sys.argv[1:]:
                rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(
                    open(path).read(), keep_bundle=True
                )
                out[path] = {
                    "keys": sorted(str(b.key) for b in rep.bugs),
                    "graph": to_json(rep.bundle.vfg),
                }
            print(json.dumps(out, sort_keys=True))
            """
        )
        files = [str(p) for p in CORPUS_FILES]
        dumps = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=REPO_SRC)
            proc = subprocess.run(
                [sys.executable, "-c", batch, *files],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            dumps.append(proc.stdout)
        assert dumps[0] == dumps[1]
