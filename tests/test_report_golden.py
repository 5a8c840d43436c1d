"""Pinned report payloads: the portable record and the ``--stats`` text.

``report_to_portable`` is the JSON payload of the daemon's
``/reports/<id>``; ``describe_statistics`` and ``describe_passes`` are
what ``--stats`` prints.  This file pins all three as text, key order
included, for three corpus files, each run twice in one driver
(``cold`` and ``warm``): the second run analyses the file again and
must print what the first did.  Wall-clock numbers (every decimal in
the text) are masked; counts are not.

After an intended change to the payload or the ``--stats`` text,
regenerate the pins with::

    PYTHONPATH=src python tests/test_report_golden.py --write

and say in the change log which entries moved and why.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from typing import Dict, List

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # run as a script
    sys.path.insert(0, str(HERE))

from repro import AnalysisConfig, Canary  # noqa: E402
from repro.analysis.fingerprint import report_to_portable  # noqa: E402

from test_corpus import CORPUS_FILES, _parse_directives  # noqa: E402

GOLDEN = HERE / "data" / "report_golden.json"
STEMS = ("mixed_all_checkers", "uaf_two_routes_first_infeasible", "sequential_clean")
_DECIMAL = re.compile(r"\d+\.\d+(?:e-?\d+)?")


def _mask(text: str) -> str:
    return _DECIMAL.sub("#", text)


def _payloads(stem: str) -> Dict[str, Dict[str, List[str]]]:
    path = next(p for p in CORPUS_FILES if p.stem == stem)
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    canary = Canary(AnalysisConfig(checkers=checkers, **overrides))
    out = {}
    for run in ("cold", "warm"):
        report = canary.analyze_source(text, filename=path.name)
        out[run] = {
            "portable": _mask(json.dumps(report_to_portable(report))),
            "statistics": _mask(report.describe_statistics()).split("\n"),
            "passes": _mask(report.describe_passes()).split("\n"),
        }
    return out


def _write() -> None:
    GOLDEN.write_text(
        json.dumps({stem: _payloads(stem) for stem in STEMS}, indent=1) + "\n"
    )


@pytest.mark.parametrize("stem", STEMS)
def test_report_text_matches_golden(stem):
    expected = json.loads(GOLDEN.read_text())[stem]
    assert _payloads(stem) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
