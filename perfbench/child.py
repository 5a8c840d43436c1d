"""One analysis process of the benchmark.

Usage: ``python perfbench/child.py JOB.json`` with the program's ``src``
on ``PYTHONPATH``.  The job names the input files and configs; the child
imports ``repro``, builds ``Canary(config)``, runs the job's set-up
analyses, writes ``ready`` to stdout, runs the timed analyses, and
writes one JSON line with every analysis's wall time, reports and
degradation flags, its peak RSS and, when tracing, the layer record.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time


def main() -> None:
    # The protocol owns stdout; anything the program prints goes to stderr.
    proto, sys.stdout = sys.stdout, sys.stderr
    job = json.loads(pathlib.Path(sys.argv[1]).read_text())

    import repro
    from repro import AnalysisConfig, Canary

    src = pathlib.Path(job["src"]).resolve()
    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")

    base = dict(job["config"])
    canary = Canary(AnalysisConfig(**base))
    texts = {a["path"]: pathlib.Path(a["path"]).read_text() for a in job["setup"] + job["timed"]}

    def canary_for(analysis):
        if not analysis["config"]:
            return canary
        return canary.with_config(AnalysisConfig(**{**base, **analysis["config"]}))

    def analyze(analysis):
        engine, text = canary_for(analysis), texts[analysis["path"]]
        t0 = time.perf_counter()
        try:
            report = engine.analyze_source(text, filename=analysis["filename"])
        except Exception as exc:  # reported as a failed analysis, never fatal
            return {"seconds": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "bugs": [[b.kind, b.source.location.line, b.sink.location.line] for b in report.bugs],
            "timed_out": report.timed_out,
            "degraded": list(report.degradation_warnings),
        }

    setup = [analyze(a) for a in job["setup"]]
    print("ready", file=proto, flush=True)

    rec = None
    if job["trace"]:
        import layers

        rec = layers.Recorder()
        layers.install(rec)
        rec.enabled = True
    timed = [analyze(a) for a in job["timed"]]
    if rec is not None:
        rec.enabled = False

    out = {
        "setup": setup,
        "timed": timed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        out["layers"] = rec.raw()
        out["spans"] = rec.spans
    print(json.dumps(out), file=proto, flush=True)


if __name__ == "__main__":
    main()
