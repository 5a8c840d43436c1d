"""The benchmark of record.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` it runs every workload, an untraced run and then a
traced run each, and prints every metric with its unit, median and
quartiles.  With ``--workload`` it runs that one workload for ``--seconds``
and prints, as its last line, one JSON object: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Results go to ``perfbench/results/``.

The parent makes every input from the seed (``inputs.py``), checks the
seed-0 digests, and runs the analyses in child processes (``child.py``),
one at a time, with the default serial configuration.  It times each
child's set-up with a ready handshake and checks every report against the
workload's oracle.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import inputs
import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

#: fewest reps a run makes, however short ``--seconds`` is
MIN_REPS = 2
#: a child that takes longer is killed, which aborts the run
CHILD_TIMEOUT_S = 120.0
CALIBRATION_LOOPS = 300_000


class HarnessError(Exception):
    """The benchmark cannot measure (no program, bad inputs, dead child)."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not a program metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile, and sample count."""
    q1, q3 = (statistics.quantiles(values, n=4)[::2]) if len(values) > 1 else (values[0],) * 2
    median = statistics.median(values)
    if all(isinstance(v, int) for v in values):
        median = round(median)  # a count stays a whole number
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def fastest(reps: List[Dict[str, Any]]) -> float:
    """A rep's analyses, each at its fastest over ``reps``.

    Every rep runs the same analyses in the same order in a fresh child,
    so the i-th analysis does identical work in every rep.  Other load on
    a shared host only ever adds time, so its minimum is the estimate that
    load disturbs least (as ``timeit`` recommends), and a slow spell spoils
    only the analyses it overlaps instead of a whole rep."""
    return sum(min(times) for times in zip(*(r["analysis_s"] for r in reps)))


def single(value: float, n: int) -> Dict[str, float]:
    """A statistic computed once over all samples of the run."""
    return {"value": value, "q1": value, "q3": value, "n": n}


# ----- children ----------------------------------------------------------------


def run_child(job: Dict[str, Any], job_path: pathlib.Path) -> Dict[str, Any]:
    """Spawn one child, time spawn -> ready, and return its result."""
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    errors = job_path.with_suffix(".stderr")
    with open(errors, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=env, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            line = proc.stdout.readline()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not line:
        tail = errors.read_text()[-2000:]
        raise HarnessError(
            f"child for {job_path.name} exited {proc.returncode} before"
            f" {'ready' if ready.strip() != 'ready' else 'its result'}:\n{tail}"
        )
    result = json.loads(line)
    result["setup_s"] = setup_s
    return result


# ----- one workload run -----------------------------------------------------------


class Run:
    """Reps of one workload until ``seconds`` have passed."""

    def __init__(self, workload: inputs.Workload, seed: int, trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for label, text in workload.inputs().items():
            path = self.dir / f"{label}.mcc"
            path.write_text(text)
            self.paths[label] = str(path)
        self.reps: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failures: List[str] = []

    def _job(self, setup: List[inputs.Analysis], timed: List[inputs.Analysis], traced: bool):
        def entry(a: inputs.Analysis):
            return {"path": self.paths[a.label], "filename": a.filename, "config": a.config}

        return {
            "src": str(SRC),
            "config": self.w.config,
            "trace": traced,
            "setup": [entry(a) for a in setup],
            "timed": [entry(a) for a in timed],
        }

    def _check(self, analyses: List[inputs.Analysis], results: List[Dict[str, Any]]) -> None:
        for a, r in zip(analyses, results):
            self.attempted += 1
            if "error" in r:
                problem = r["error"]
            elif r["timed_out"]:
                problem = "timed out"
            elif r["degraded"]:
                problem = f"degraded: {r['degraded'][0]}"
            else:
                problem = a.oracle(a.text, [tuple(b) for b in r["bugs"]])
            if problem:
                self.failures.append(f"{a.label}: {problem}")

    def rep(self, traced: bool) -> Dict[str, Any]:
        w = self.w
        calib = calibrate()
        if w.resident:
            groups = [(w.setup, w.timed)]
        else:
            groups = [([], [a]) for a in w.timed]
        seconds: List[float] = []
        setup_s: List[float] = []
        rss: List[float] = []
        raws: List[Dict[str, Any]] = []
        for i, (setup, timed) in enumerate(groups):
            result = run_child(self._job(setup, timed, traced), self.dir / f"job{i}.json")
            self._check(setup, result["setup"])
            self._check(timed, result["timed"])
            seconds += [r["seconds"] for r in result["timed"]]
            setup_s.append(result["setup_s"])
            rss.append(result["rss_mb"])
            if traced:
                raws.append(result["layers"])
                self.spans += [
                    {"rep": len(self.reps), "child": i, "name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in result["spans"]
                ]
        rep = {
            "traced": traced,
            "calib_s": calib,
            "analyze_s": sum(seconds),
            "analysis_s": seconds,
            "setup_s": setup_s,
            "rss_mb": max(rss),
        }
        if traced:
            rep["layers"] = layers.layer_metrics(raws)
        return rep

    def measure(self, seconds: float) -> None:
        """Untraced reps; with tracing, alternating untraced and traced reps."""
        deadline = time.perf_counter() + seconds
        durations: List[float] = []
        while True:
            t0 = time.perf_counter()
            traced = self.trace and len(self.reps) % 2 == 1
            self.reps.append(self.rep(traced))
            durations.append(time.perf_counter() - t0)
            # Stop when the next rep would likely end past the deadline.
            if len(self.reps) >= MIN_REPS and (
                time.perf_counter() + statistics.median(durations) > deadline
            ):
                break

    # ----- metrics ---------------------------------------------------------

    def _plain(self) -> List[Dict[str, Any]]:
        return [r for r in self.reps if not r["traced"]]

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        plain = self._plain()
        return {
            "analyze_s": {
                **quartiles([r["analyze_s"] for r in plain]),
                "value": fastest(plain),
                "median": statistics.median(r["analyze_s"] for r in plain),
            },
            "peak_rss_mb": quartiles([r["rss_mb"] for r in plain]),
            "setup_s": quartiles([s for r in plain for s in r["setup_s"]]),
        }

    def per_layer(self) -> Dict[str, Dict[str, float]]:
        traced = [r for r in self.reps if r["traced"]]
        if not traced:
            return {}
        names = sorted(traced[0]["layers"])
        out = {k: quartiles([r["layers"][k] for r in traced]) for k in names}
        overhead = fastest(traced) / fastest(self._plain()) - 1.0
        out["trace.overhead_pct"] = single(100.0 * overhead, len(traced))
        out["trace.coverage_pct"] = quartiles(
            [100.0 * layers.self_time_total(r["layers"]) / r["analyze_s"] for r in traced]
        )
        return out

    def extras(self) -> Dict[str, Any]:
        samples = [s for r in self._plain() for s in r["analysis_s"]]
        out: Dict[str, Any] = {
            "host.calib_s": quartiles([r["calib_s"] for r in self.reps]),
            "analysis_p90_s": single(layers.percentile(samples, 90), len(samples)),
            "failed_share": len(self.failures) / self.attempted,
        }
        if self.w.name == "table1":
            out["time_exponent"] = self.time_exponent()
        return out

    def time_exponent(self) -> float:
        """Least-squares slope of log(fastest wall) on log(lines) (Fig. 8)."""
        plain = self._plain()
        xs, ys = [], []
        for i, a in enumerate(self.w.timed):
            xs.append(math.log(a.text.count("\n")))
            ys.append(math.log(min(r["analysis_s"][i] for r in plain)))
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    def summary(self) -> Dict[str, Any]:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": self.trace,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "end_to_end": self.end_to_end(),
            "per_layer": self.per_layer(),
            "extras": self.extras(),
            "reps": self.reps,
        }


# ----- reporting ----------------------------------------------------------------


def print_table(summary: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}, trace {int(summary['trace'])}):"
          f" {len(summary['reps'])} reps, {summary['attempted']} analyses,"
          f" {summary['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for name, m in summary[section].items():
            print(f"  {name:<34} {m['value']:>12.5g} {units.get(name, ''):<8}"
                  f" q1 {m['q1']:<10.5g} q3 {m['q3']:<10.5g} n {m['n']}")
    for name, value in summary["extras"].items():
        shown = value["value"] if isinstance(value, dict) else value
        print(f"  {name:<34} {shown:>12.5g}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    mismatched = inputs.digest_mismatches(name)
    if mismatched:
        raise HarnessError(f"{name}: seed-0 inputs differ from digests.json: {mismatched}")
    run = Run(inputs.WORKLOADS[name](seed), seed, trace)
    run.measure(seconds)
    RESULTS.mkdir(exist_ok=True)
    summary = run.summary()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"workloads": {name: summary}}, indent=1))
    if run.spans:
        with open(RESULTS / f"{stem}.spans.ndjson", "w") as out:
            for span in run.spans:
                out.write(json.dumps(span) + "\n")
    return summary


def result_line(summaries: List[Dict[str, Any]], metrics: List[Dict[str, str]]) -> Dict[str, Any]:
    """The last line of output; metric names get a ``workload/`` prefix
    when more than one workload ran."""
    values = {}
    for s in summaries:
        measured = {**s["end_to_end"], **s["per_layer"]}
        for m in metrics:
            key = f"{s['workload']}/{m['name']}" if len(summaries) > 1 else m["name"]
            values[key] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.workload:
            summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_table(summary, units)
            metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
            line = result_line([summary], metrics)
        else:
            combined = {}
            for w in spec["workloads"]:
                plain = run_workload(w["name"], args.seed, args.seconds, False)
                traced = run_workload(w["name"], args.seed, args.seconds, True)
                plain["per_layer"] = traced["per_layer"]
                plain["attempted"] += traced["attempted"]
                plain["failed"] += traced["failed"]
                plain["failures"] += traced["failures"]
                print_table(plain, units)
                combined[w["name"]] = plain
            (RESULTS / f"all-seed{args.seed}.json").write_text(
                json.dumps({"workloads": combined}, indent=1)
            )
            line = result_line(list(combined.values()), spec["end_to_end"] + spec["per_layer"])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
