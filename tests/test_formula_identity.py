"""Pinned Φ_all digests and solver outputs: the exact formulas detection
hands the solver, and exactly what the solver answers for them.

Φ assembly (``RealizabilityChecker.formula_for``) may be restructured
for speed, but every Φ_all it builds must stay the same interned term:
the same conjuncts in the same order, so the CNF, the solver's search
and the witnesses do not move.  This file pins the sha256 of
``pretty()`` of every formula ``check_formula`` receives, in call order:

* every ``tests/corpus`` file with its own directives, under each of
  SC, TSO and PSO (the model overrides a ``CONFIG memory_model`` line);
* ``fuzz_gen.detection_scaled_program(8, 1, 16)`` under each model.

Next to each Φ pin, ``solve_digests.json`` pins the sha256 of every
``solve_formula`` result of the same analysis, in call order: the
verdict, the sorted integer model, the sorted boolean model and the
unknown reason (not the solve time).  The solver may be made faster,
but it must keep its search and its model, so witnesses do not move.

The formulas must not depend on the hash seed or on the order in which
terms were interned, so CI also runs this file in fresh interpreters
under two ``PYTHONHASHSEED`` values.

After an intended change to the formulas or to the solver's answers,
regenerate both pin files with::

    PYTHONPATH=src python tests/test_formula_identity.py --write

and say in the change log which entries moved and why.  No subject
sets a solver timeout, so no pinned answer depends on the speed of the
host.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
from typing import Dict, List, Tuple

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # run as a script
    sys.path.insert(0, str(HERE))

from repro import AnalysisConfig, Canary  # noqa: E402
from repro.detection import realizability  # noqa: E402
from repro.detection.realizability import RealizabilityChecker  # noqa: E402

import fuzz_gen  # noqa: E402
from test_corpus import CORPUS_FILES, _parse_directives  # noqa: E402

DIGESTS = HERE / "data" / "phi_digests.json"
SOLVE_DIGESTS = HERE / "data" / "solve_digests.json"
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
NAMES = [name for name, *_rest in SUBJECTS]
_SUBJECT_BY_NAME = {name: rest for name, *rest in SUBJECTS}


def _solve_digest(result) -> str:
    verdict, ints, bools, _seconds, reason = result
    text = json.dumps([verdict, sorted(ints.items()), sorted(bools.items()), reason])
    return hashlib.sha256(text.encode()).hexdigest()


def digests(text: str, checkers, overrides, model: str) -> Tuple[List[str], List[str]]:
    """sha256 of ``pretty()`` of every Φ_all one analysis solves, and of
    every ``solve_formula`` result it gets back."""
    phis: List[str] = []
    solves: List[str] = []
    original = RealizabilityChecker.check_formula
    original_solve = realizability.solve_formula

    def recording(self, formula):
        phis.append(hashlib.sha256(formula.pretty().encode()).hexdigest())
        return original(self, formula)

    def recording_solve(*args, **kwargs):
        result = original_solve(*args, **kwargs)
        solves.append(_solve_digest(result))
        return result

    config = AnalysisConfig(
        checkers=tuple(checkers),
        **{**overrides, "memory_model": model, "use_cache": False},
    )
    RealizabilityChecker.check_formula = recording
    realizability.solve_formula = recording_solve
    try:
        Canary(config).analyze_source(text)
    finally:
        RealizabilityChecker.check_formula = original
        realizability.solve_formula = original_solve
    return phis, solves


def _pinned(path: pathlib.Path = DIGESTS) -> Dict[str, List[str]]:
    return json.loads(path.read_text())


def test_every_subject_is_pinned():
    assert sorted(_pinned()) == sorted(NAMES)
    assert sorted(_pinned(SOLVE_DIGESTS)) == sorted(NAMES)


@functools.lru_cache(maxsize=None)
def _recorded(name: str) -> Tuple[List[str], List[str]]:
    """One analysis per subject, shared by both pin tests."""
    return digests(*_SUBJECT_BY_NAME[name])


@pytest.mark.parametrize("name", NAMES)
def test_phi_all_digests_match(name):
    assert _recorded(name)[0] == _pinned()[name]


@pytest.mark.parametrize("name", NAMES)
def test_solver_outputs_match(name):
    assert _recorded(name)[1] == _pinned(SOLVE_DIGESTS)[name]


def _write() -> None:
    phis: Dict[str, List[str]] = {}
    solves: Dict[str, List[str]] = {}
    for name in NAMES:
        phis[name], solves[name] = _recorded(name)
    DIGESTS.parent.mkdir(exist_ok=True)
    for path, pins in ((DIGESTS, phis), (SOLVE_DIGESTS, solves)):
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(pins)} entries to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
