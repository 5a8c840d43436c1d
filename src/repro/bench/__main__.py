"""CLI entry point: regenerate every table and figure of the evaluation.

Usage::

    python -m repro.bench [--profile quick|paper] [--tools canary,saber,fsam]
"""

from __future__ import annotations

import argparse
import sys

from .runner import TOOLS, run_all
from .subjects import PROFILES, SUBJECTS
from .tables import render_fig7_memory, render_fig7_time, render_fig8, render_table1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Canary reproduction benchmarks")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    parser.add_argument(
        "--tools", default=",".join(TOOLS), help="comma-separated tool list"
    )
    parser.add_argument(
        "--subjects",
        default="",
        help="comma-separated subject names (default: all twenty)",
    )
    parser.add_argument(
        "--artifacts",
        default="",
        help="directory to write CSV/ASCII artifacts into",
    )
    args = parser.parse_args(argv)
    profile = PROFILES[args.profile]
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    unknown = [t for t in tools if t not in TOOLS]
    if unknown:
        parser.error(f"unknown tool(s): {', '.join(unknown)}")
    if not tools:
        parser.error("--tools names no tool")
    wanted = [s.strip() for s in args.subjects.split(",") if s.strip()]
    known = {s.name for s in SUBJECTS}
    unknown = [name for name in wanted if name not in known]
    if unknown:
        parser.error(f"unknown subject(s): {', '.join(unknown)}")
    subjects = [s for s in SUBJECTS if s.name in wanted] if wanted else None

    print(f"profile={profile.name}  tools={','.join(tools)}", flush=True)
    runs = run_all(profile, tools=tools, subjects=subjects)
    print()
    print(render_fig7_time(runs))
    print()
    print(render_fig7_memory(runs))
    print()
    print(render_fig8(runs))
    print()
    print(render_table1(runs))
    if args.artifacts:
        from .artifacts import write_artifacts

        for path in write_artifacts(runs, args.artifacts):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
