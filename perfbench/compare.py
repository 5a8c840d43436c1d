"""Compare results files of ``perfbench/run.py``: A (parent) against B.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py A1.json ... An.json -- B1.json ... Bn.json

With one file a side, the spread is that run's own quartiles; with n files
a side (n alternating parent/change runs), it is the quartiles of the n
values, and the i-th files form the i-th pair.  For every workload in both
sides and every end-to-end metric of ``BENCHMARK.json`` it prints both
medians and quartiles and a verdict for B:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (IQR over median) exceeds the bound;
* ``better``     — B's median is better by more than both spreads and, with
  pairs, B wins at least 9 of every 10 pairs (ties count for neither);
* ``same``       — otherwise.

Count metrics (unit ``count``) must be identical on both sides.  Exits 1
on any ``worse`` verdict, count mismatch or higher failed share.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent


def summarize(entries: List[Dict[str, float]]) -> Dict[str, float]:
    """One run's entry as is; several runs as the quartiles of their values."""
    if len(entries) == 1:
        return entries[0]
    values = [e["value"] for e in entries]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(m: Dict[str, float]) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float,
            win_share: float = 1.0) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if -worse_by > max(spread(a), spread(b)) and win_share >= 0.9:
        return "better"
    return "same"


def compare(a_runs: List[dict], b_runs: List[dict], spec: dict) -> List[str]:
    """Printable lines; a line starting with ``!`` blocks."""
    lines = []
    common = set.intersection(*(set(r["workloads"]) for r in a_runs + b_runs))
    for name in sorted(common):
        wa = [r["workloads"][name] for r in a_runs]
        wb = [r["workloads"][name] for r in b_runs]
        lines.append(f"== {name}")
        for m in spec["end_to_end"]:
            ea = [w["end_to_end"][m["name"]] for w in wa]
            eb = [w["end_to_end"][m["name"]] for w in wb]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (y["value"] - x["value"]) < 0 for x, y in zip(ea, eb))
            ma, mb = summarize(ea), summarize(eb)
            v = verdict(ma, mb, m["better"], m["bound"], wins / len(ea))
            lines.append(
                f"{'!' if v == 'worse' else ' '} {m['name']:<12} {m['unit']:<3}"
                f" A {ma['value']:.5g} [{ma['q1']:.5g}, {ma['q3']:.5g}]"
                f"  B {mb['value']:.5g} [{mb['q1']:.5g}, {mb['q3']:.5g}]"
                f"  B wins {wins}/{len(ea)}  {v} (bound {m['bound']:g})"
            )
        for m in spec["per_layer"]:
            if m["unit"] != "count":
                continue
            counts = {w["per_layer"][m["name"]]["value"] for w in wa + wb if m["name"] in w["per_layer"]}
            if len(counts) > 1:
                lines.append(f"! {m['name']}: counts differ {sorted(counts)}")
        fa = sum(w["failed"] for w in wa) / sum(w["attempted"] for w in wa)
        fb = sum(w["failed"] for w in wb) / sum(w["attempted"] for w in wb)
        if fb > fa:
            lines.append(f"! failed_share {fa:.4g} -> {fb:.4g}")
    return lines


def main(argv: List[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        a_paths, b_paths = argv[:cut], argv[cut + 1:]
    else:
        a_paths, b_paths = argv[:1], argv[1:]
    if not a_paths or len(a_paths) != len(b_paths):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = ([json.loads(pathlib.Path(p).read_text()) for p in side]
                      for side in (a_paths, b_paths))
    lines = compare(a_runs, b_runs, spec)
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
