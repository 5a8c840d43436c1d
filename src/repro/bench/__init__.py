"""Benchmark substrate: workload generation, subjects, metering, tables.

Run the full evaluation from the command line::

    python -m repro.bench                 # quick profile
    REPRO_BENCH_PROFILE=paper python -m repro.bench

or via pytest-benchmark targets in ``benchmarks/``.
"""

from .artifacts import ascii_time_chart, fig7_csv, fig8_csv, table1_csv, write_artifacts
from .codegen import GroundTruth, ProjectSpec, generate_project
from .curvefit import LinearFit, linear_fit
from .metering import Measurement, measure
from .runner import SubjectRun, ToolRun, prepare_subject, run_all, run_subject
from .subjects import PROFILES, SUBJECTS, Subject, active_profile, project_spec
from .tables import (
    fig8_fits,
    render_fig7_memory,
    render_fig7_time,
    render_fig8,
    render_table1,
)

__all__ = [
    "ascii_time_chart",
    "fig7_csv",
    "fig8_csv",
    "table1_csv",
    "write_artifacts",
    "GroundTruth",
    "ProjectSpec",
    "generate_project",
    "LinearFit",
    "linear_fit",
    "Measurement",
    "measure",
    "SubjectRun",
    "ToolRun",
    "prepare_subject",
    "run_all",
    "run_subject",
    "PROFILES",
    "SUBJECTS",
    "Subject",
    "active_profile",
    "project_spec",
    "fig8_fits",
    "render_fig7_memory",
    "render_fig7_time",
    "render_fig8",
    "render_table1",
]
