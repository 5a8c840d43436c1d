"""Cross-run identity: independent processes must mint byte-identical
IR names, summary fingerprints, VFG summaries, and bug keys.

This is the end-to-end contract behind the portable disk summary
namespace — identity keys computed in one process must mean the same
thing in another, regardless of hash seed, import order, or interning
state.  The subprocess tests run the full pipeline twice under
*different* ``PYTHONHASHSEED`` values and compare JSON dumps byte for
byte.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.frontend import parse_program
from repro.frontend.fingerprint import ast_fingerprint
from repro.ir.values import VariableNamer
from repro.lowering import lower_program, unroll_loops

from programs import NESTED_LOOPS
from test_corpus import CORPUS_FILES

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

DRIVER = textwrap.dedent(
    """
    import json, sys
    from repro import AnalysisConfig, Canary

    text = open(sys.argv[1]).read()
    rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(text)
    index = rep.bundle.summary_index
    fps = {n: s.fingerprint for n, s in index.summaries.items()} if index else {}
    print(json.dumps({
        "keys": sorted(str(b.key) for b in rep.bugs),
        "vfg": rep.vfg_summary,
        "fps": fps,
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


class TestAstFingerprintGolden:
    """``ast_fingerprint`` is the function ``content_key`` every ``vfs1``
    disk summary key chains on.  These digests were recorded before the
    encoder was rewritten; an encoder change that moves them invalidates
    every persisted summary cache."""

    @pytest.mark.parametrize(
        "stem, digest",
        [
            ("uaf_basic", "91ce454999814bb0"),
            ("mixed_all_checkers", "30e408a81f046bbe"),
            ("uaf_loop_fork", "57d67f69a09fa1a5"),
        ],
    )
    def test_corpus_program(self, stem, digest):
        path = next(p for p in CORPUS_FILES if p.stem == stem)
        program = unroll_loops(parse_program(path.read_text()), depth=2)
        assert ast_fingerprint(program) == digest

    def test_nested_loops_at_depth_two(self):
        program = parse_program(NESTED_LOOPS)
        assert ast_fingerprint(unroll_loops(program, depth=2)) == "479feb1ea96a5e55"
        module = lower_program(program, unroll_depth=2)
        assert {name: f.content_key for name, f in module.functions.items()} == {
            "main": "ca0f63863890f33b",
            "worker": "f8fce468e1589337",
        }


class TestCrossProcess:
    @pytest.mark.parametrize("stem", ["uaf_basic", "mixed_all_checkers"])
    def test_two_processes_differ_only_in_hashseed(self, stem):
        path = next(p for p in CORPUS_FILES if p.stem == stem)
        first = _pipeline_dump(path, "1")
        second = _pipeline_dump(path, "4242")
        assert first == second
        payload = json.loads(first)
        assert payload["fps"]
        assert all("::" in name for name in payload["vars"] if "::" in name)

    def test_full_corpus_fingerprints_stable(self, tmp_path):
        # One subprocess per seed over the whole corpus (batched in a
        # single interpreter each, to keep this test affordable).
        batch = textwrap.dedent(
            """
            import json, sys
            from repro import AnalysisConfig, Canary
            out = {}
            for path in sys.argv[1:]:
                rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(
                    open(path).read()
                )
                index = rep.bundle.summary_index
                out[path] = {
                    "keys": sorted(str(b.key) for b in rep.bugs),
                    "fps": {n: s.fingerprint for n, s in index.summaries.items()}
                    if index
                    else {},
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
