"""Command-line interface: ``python -m repro [options] file.mcc ...``

Analyzes MiniCC source files with Canary and prints the bug reports.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import AnalysisConfig, Canary
from .checkers import ALL_CHECKERS, resolve_checker_names
from .frontend import FrontendError
from .obs import Tracer, write_chrome_trace, write_metrics_json, write_trace_ndjson


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # ``repro serve``: the long-lived analysis daemon.  Dispatched
        # before the batch parser so the positional-files grammar of the
        # one-shot CLI stays untouched.
        from .server.app import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Canary (PLDI 2021) reproduction — inter-thread value-flow bug detector",
    )
    parser.add_argument("files", nargs="+", help="MiniCC source files")
    parser.add_argument(
        "--checkers",
        default="use-after-free",
        help="comma-separated checker list (available: "
        f"{', '.join(sorted(ALL_CHECKERS))}; short aliases: race, atomicity,"
        " order, uaf, doublefree, nullderef, leak)",
    )
    parser.add_argument(
        "--all-threads",
        action="store_true",
        help="also report intra-thread findings (default: inter-thread only)",
    )
    parser.add_argument(
        "--model-locks",
        action="store_true",
        help="model lock/unlock critical sections: mutual-exclusion order"
        " constraints plus the data-race checker's lock-set filter",
    )
    parser.add_argument(
        "--memory-model",
        choices=["sc", "tso", "pso"],
        default="sc",
        help="memory model for Φ_po: sc keeps full program order, tso"
        " relaxes store→load, pso additionally relaxes store→store"
        " (exercised by the order-violation checker)",
    )
    parser.add_argument("--unroll", type=int, default=2, help="loop unroll depth")
    parser.add_argument(
        "--context-depth", type=int, default=6, help="calling-context nesting depth"
    )
    parser.add_argument(
        "--show-vfg", action="store_true", help="dump the guarded value-flow graph"
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="path search depth bound (default: 40)",
    )
    parser.add_argument(
        "--max-paths",
        type=int,
        default=None,
        metavar="N",
        help="candidate paths enumerated per source (default: 512)",
    )
    parser.add_argument(
        "--max-visits",
        type=int,
        default=None,
        metavar="N",
        help="DFS node-visit budget per source (default: 200000)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per file; on expiry a partial report is"
        " printed and flagged as timed out (default: unlimited)",
    )
    parser.add_argument(
        "--pass-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soft per-pass budget: overruns are reported as degradation"
        " warnings, the pass itself is not interrupted",
    )
    parser.add_argument(
        "--solver-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-SMT-query deadline; an expired query counts as unknown"
        " (the candidate is not reported) instead of stalling the run",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-file timings, solver counters and the per-pass"
        " table (name, run/failed, seconds)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the run's trace spans as newline-delimited JSON"
        " (one span per line, first line is the provenance meta record)",
    )
    parser.add_argument(
        "--trace-chrome",
        default=None,
        metavar="FILE",
        help="write the run's trace in Chrome trace-event format"
        " (loadable in chrome://tracing and Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write every analyzed file's metrics registry as flat JSON"
        " ({meta, files: {path: {metric: value}}})",
    )
    args = parser.parse_args(argv)

    try:
        checkers = resolve_checker_names(
            c.strip() for c in args.checkers.split(",") if c.strip()
        )
    except ValueError as exc:
        parser.error(str(exc))

    defaults = AnalysisConfig()
    try:
        config = AnalysisConfig(
            checkers=checkers,
            inter_thread_only=not args.all_threads,
            model_locks=args.model_locks,
            memory_model=args.memory_model,
            unroll_depth=args.unroll,
            context_depth=args.context_depth,
            max_path_depth=args.max_depth
            if args.max_depth is not None
            else defaults.max_path_depth,
            max_paths_per_source=args.max_paths
            if args.max_paths is not None
            else defaults.max_paths_per_source,
            max_search_visits=args.max_visits
            if args.max_visits is not None
            else defaults.max_search_visits,
            timeout_seconds=args.timeout,
            pass_timeout_seconds=args.pass_timeout,
            solver_timeout_seconds=args.solver_timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))

    tracing = args.trace_out is not None or args.trace_chrome is not None
    tracer = Tracer(enabled=True) if tracing else None
    canary = Canary(config, tracer=tracer)
    file_metrics = {}
    total = 0
    for path in args.files:
        try:
            with open(path) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            report = canary.analyze_source(
                source, filename=path, keep_bundle=args.show_vfg
            )
        except FrontendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.metrics_out is not None:
            file_metrics[path] = report.metrics.snapshot()
        total += report.num_reports
        status = " (timed out — partial results)" if report.timed_out else ""
        print(f"{path}: {report.num_reports} finding(s){status}")
        for warning in report.degradation_warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for bug in report.bugs:
            print(bug.describe())
            print()
        if args.stats:
            print(report.describe_statistics())
            print(report.describe_passes())
            print()
        if args.show_vfg and report.bundle is not None:
            print(report.bundle.vfg.pretty())
    if tracer is not None:
        if args.trace_out is not None:
            count = write_trace_ndjson(tracer.finished, args.trace_out)
            print(f"trace: {count} span(s) -> {args.trace_out}", file=sys.stderr)
        if args.trace_chrome is not None:
            count = write_chrome_trace(tracer.finished, args.trace_chrome)
            print(
                f"trace: {count} event(s) -> {args.trace_chrome}", file=sys.stderr
            )
    if args.metrics_out is not None:
        write_metrics_json(
            args.metrics_out, files=file_metrics, config_digest=config.cache_key()
        )
        print(f"metrics: {len(file_metrics)} file(s) -> {args.metrics_out}", file=sys.stderr)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
