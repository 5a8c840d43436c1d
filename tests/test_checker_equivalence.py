"""The CI witness-replay gate, as a runnable test suite.

Two contracts over the *entire* corpus, with every file's directive
checkers unioned with the three concurrency families:

* **isolation** — the checkers of one run share a realizability checker,
  and that sharing must be invisible: each
  checker run alone reports exactly its own slice of the combined run
  (same bug keys, witness paths and witness interleavings);
* **replay** — every realizable report must confirm dynamically via
  :func:`repro.interp.confirm_all`.  Files configured with a relaxed
  memory model are skipped: the concrete interpreter executes program
  order within each thread, so a TSO/PSO reordering witness is not
  sequentially executable by construction.

Run as a script (``python tests/test_checker_equivalence.py``) to print
the replay-coverage table that the CI job publishes to its summary.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro import AnalysisConfig, Canary
from repro.interp import confirm_all

from test_corpus import CORPUS_FILES, _parse_directives

#: the concurrency families ride along on every corpus file — they must
#: be silent on files whose EXPECT lines do not mention them only if the
#: file really is clean for that kind, which the corpus suite pins; here
#: they only need to be *deterministic* and *replayable*.
CONCURRENCY_FAMILIES = ("data-race", "atomicity-violation", "order-violation")


def _file_setup(path: Path) -> Tuple[str, Tuple[str, ...], Dict[str, object]]:
    text = path.read_text()
    _expects, checkers, config = _parse_directives(text)
    all_checkers = tuple(dict.fromkeys(tuple(checkers) + CONCURRENCY_FAMILIES))
    return text, all_checkers, config


def _analyze(text, filename, checkers, config, keep_bundle=False):
    overrides = dict(config, checkers=checkers)
    return Canary(AnalysisConfig(**overrides)).analyze_source(
        text, filename=filename, keep_bundle=keep_bundle
    )


def _signature(bugs):
    return sorted(
        (
            b.key,
            tuple(b.path),
            tuple(b.witness_order),
            tuple(sorted(b.witness_env.items())),
        )
        for b in bugs
    )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_combined_run_matches_per_checker_runs(path: Path):
    text, checkers, config = _file_setup(path)
    combined = _analyze(text, path.name, checkers, config)
    for name in checkers:
        alone = _analyze(text, path.name, (name,), config)
        assert {b.kind for b in alone.bugs} <= {name}, path.name
        assert _signature(alone.bugs) == _signature(
            b for b in combined.bugs if b.kind == name
        ), f"{path.name}: {name} alone diverged from the combined run"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_every_realizable_report_replays(path: Path):
    text, checkers, config = _file_setup(path)
    if config.get("memory_model", "sc") != "sc":
        pytest.skip("relaxed-memory witness is not sequentially executable")
    report = _analyze(text, path.name, checkers, config, keep_bundle=True)
    results = confirm_all(report.bundle.module, report.bugs)
    unconfirmed = [r for r in results if not r.confirmed]
    assert not unconfirmed, "\n".join(r.describe() for r in unconfirmed)


def replay_coverage() -> Tuple[Dict[str, Tuple[int, int]], int]:
    """(kind -> (confirmed, total)) over the SC corpus, plus files skipped."""
    per_kind: Dict[str, Tuple[int, int]] = {}
    skipped = 0
    for path in CORPUS_FILES:
        text, checkers, config = _file_setup(path)
        if config.get("memory_model", "sc") != "sc":
            skipped += 1
            continue
        report = _analyze(text, path.name, checkers, config, keep_bundle=True)
        for result in confirm_all(report.bundle.module, report.bugs):
            confirmed, total = per_kind.get(result.bug.kind, (0, 0))
            per_kind[result.bug.kind] = (
                confirmed + int(result.confirmed),
                total + 1,
            )
    return per_kind, skipped


def main() -> int:
    per_kind, skipped = replay_coverage()
    print("| kind | confirmed | total |")
    print("|------|-----------|-------|")
    failures = 0
    for kind in sorted(per_kind):
        confirmed, total = per_kind[kind]
        print(f"| {kind} | {confirmed} | {total} |")
        failures += total - confirmed
    grand = [sum(v[i] for v in per_kind.values()) for i in (0, 1)]
    print(f"| **all** | **{grand[0]}** | **{grand[1]}** |")
    print()
    print(
        f"{len(CORPUS_FILES) - skipped} corpus files replayed,"
        f" {skipped} skipped (relaxed memory model)."
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
