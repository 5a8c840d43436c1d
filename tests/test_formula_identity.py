"""Pinned Φ_all digests: the exact formulas detection hands the solver.

Φ assembly (``RealizabilityChecker.formula_for``) may be restructured
for speed, but every Φ_all it builds must stay the same interned term:
the same conjuncts in the same order, so the CNF, the solver's search
and the witnesses do not move.  This file pins the sha256 of
``pretty()`` of every formula ``check_formula`` receives, in call order:

* every ``tests/corpus`` file with its own directives, under each of
  SC, TSO and PSO (the model overrides a ``CONFIG memory_model`` line);
* ``fuzz_gen.detection_scaled_program(8, 1, 16)`` under each model.

The formulas must not depend on the hash seed or on the order in which
terms were interned, so CI also runs this file in fresh interpreters
under two ``PYTHONHASHSEED`` values.

After an intended change to the formulas, regenerate the pins with::

    PYTHONPATH=src python tests/test_formula_identity.py --write

and say in the change log which entries moved and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, List

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # run as a script
    sys.path.insert(0, str(HERE))

from repro import AnalysisConfig, Canary  # noqa: E402
from repro.detection.realizability import RealizabilityChecker  # noqa: E402

import fuzz_gen  # noqa: E402
from test_corpus import CORPUS_FILES, _parse_directives  # noqa: E402

DIGESTS = HERE / "data" / "phi_digests.json"
MODELS = ("sc", "tso", "pso")
SCALED = "detection_scaled_program(8,1,16)"


def _subjects():
    """(entry name, source text, checkers, config overrides, model)."""
    out = []
    for path in CORPUS_FILES:
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        for model in MODELS:
            out.append((f"{path.stem}/{model}", text, checkers, overrides, model))
    scaled = fuzz_gen.detection_scaled_program(8, 1, 16)
    for model in MODELS:
        out.append((f"{SCALED}/{model}", scaled, ("use-after-free",), {}, model))
    return out


SUBJECTS = _subjects()


def phi_digests(text: str, checkers, overrides, model: str) -> List[str]:
    """sha256 of ``pretty()`` of every Φ_all one analysis solves."""
    seen: List[str] = []
    original = RealizabilityChecker.check_formula

    def recording(self, formula):
        seen.append(hashlib.sha256(formula.pretty().encode()).hexdigest())
        return original(self, formula)

    config = AnalysisConfig(
        checkers=tuple(checkers),
        **{**overrides, "memory_model": model, "use_cache": False},
    )
    RealizabilityChecker.check_formula = recording
    try:
        Canary(config).analyze_source(text)
    finally:
        RealizabilityChecker.check_formula = original
    return seen


def _pinned() -> Dict[str, List[str]]:
    return json.loads(DIGESTS.read_text())


def test_every_subject_is_pinned():
    assert sorted(_pinned()) == sorted(name for name, *_rest in SUBJECTS)


@pytest.mark.parametrize(
    "name,text,checkers,overrides,model",
    SUBJECTS,
    ids=[s[0] for s in SUBJECTS],
)
def test_phi_all_digests_match(name, text, checkers, overrides, model):
    assert phi_digests(text, checkers, overrides, model) == _pinned()[name]


def _write() -> None:
    pins = {name: phi_digests(*rest) for name, *rest in SUBJECTS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} entries to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
