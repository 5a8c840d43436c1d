"""Benchmark engine: run Canary and the baselines over the subjects.

One :class:`SubjectRun` per subject collects everything the paper's
figures and table need: per-tool VFG-construction time and memory
(Fig. 7), end-to-end Canary time/memory (Fig. 8), and per-tool report
counts with ground-truth classification (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisConfig, Canary
from ..baselines import FsamBaseline, SaberBaseline
from ..frontend import parse_program
from ..lowering import lower_program
from .codegen import GroundTruth, generate_project
from .metering import measure
from .subjects import SUBJECTS, BenchProfile, Subject, project_spec

__all__ = [
    "TOOLS",
    "ToolRun",
    "SubjectRun",
    "run_subject",
    "run_all",
    "prepare_subject",
]

#: The tools a run can measure: Canary and the two §7.1 baselines.
TOOLS: Tuple[str, ...] = ("canary", "saber", "fsam")


@dataclass
class ToolRun:
    """One tool's outcome on one subject."""

    tool: str
    seconds: Optional[float] = None  # None = NA (budget exceeded)
    peak_mb: Optional[float] = None
    reports: Optional[int] = None
    true_positives: int = 0
    false_positives: int = 0
    timed_out: bool = False

    @property
    def fp_rate(self) -> Optional[float]:
        if not self.reports:
            return None
        return 100.0 * self.false_positives / self.reports


@dataclass
class SubjectRun:
    subject: Subject
    lines: int
    tools: Dict[str, ToolRun] = field(default_factory=dict)


_module_cache: Dict[Tuple[str, str], tuple] = {}


def prepare_subject(subject: Subject, profile: BenchProfile):
    """Generate + lower one subject (cached per profile)."""
    key = (profile.name, subject.name)
    cached = _module_cache.get(key)
    if cached is not None:
        return cached
    spec = project_spec(subject, profile)
    source, truth = generate_project(spec)
    module = lower_program(parse_program(source, f"{subject.name}.mcc"))
    lines = source.count("\n")
    _module_cache[key] = (module, truth, lines)
    return module, truth, lines


def _classify(reports, module, truth: GroundTruth) -> Tuple[int, int]:
    tps = fps = 0
    for report in reports:
        func = module.function_of(report.source)
        if truth.classify_free_site(func) == "tp":
            tps += 1
        else:
            fps += 1
    return tps, fps


def run_subject(
    subject: Subject,
    profile: BenchProfile,
    tools: Tuple[str, ...] = TOOLS,
    track_memory: bool = True,
    canary_timeout_seconds: Optional[float] = None,
) -> SubjectRun:
    module, truth, lines = prepare_subject(subject, profile)
    run = SubjectRun(subject=subject, lines=lines)

    if "canary" in tools:
        # ``canary_timeout_seconds`` (None = unlimited, the default) maps
        # to the run's wall budget; an expired run comes back as a partial
        # report flagged timed_out and is recorded NA like the baselines.
        canary = Canary(AnalysisConfig(timeout_seconds=canary_timeout_seconds))

        meas = measure(
            lambda: canary.analyze_module(module), track_memory=track_memory
        )
        report = meas.result
        if report.timed_out:
            run.tools["canary"] = ToolRun(tool="canary", timed_out=True)
        else:
            tps, fps = _classify(report.bugs, module, truth)
            run.tools["canary"] = ToolRun(
                tool="canary",
                seconds=meas.seconds,
                peak_mb=meas.peak_mb,
                reports=report.num_reports,
                true_positives=tps,
                false_positives=fps,
            )

    budget = profile.baseline_budget_seconds
    if "saber" in tools:
        saber = SaberBaseline(time_budget=budget)
        meas = measure(lambda: saber.detect_uaf(module), track_memory=track_memory)
        result = meas.result
        if result.timed_out or meas.seconds > budget:
            run.tools["saber"] = ToolRun(tool="saber", timed_out=True)
        else:
            tps, fps = _classify(result.reports, module, truth)
            run.tools["saber"] = ToolRun(
                tool="saber",
                seconds=meas.seconds,
                peak_mb=meas.peak_mb,
                reports=len(result.reports),
                true_positives=tps,
                false_positives=fps,
            )

    if "fsam" in tools:
        fsam = FsamBaseline(time_budget=budget)
        meas = measure(lambda: fsam.detect_uaf(module), track_memory=track_memory)
        result = meas.result
        if result.timed_out or meas.seconds > budget:
            run.tools["fsam"] = ToolRun(tool="fsam", timed_out=True)
        else:
            tps, fps = _classify(result.reports, module, truth)
            run.tools["fsam"] = ToolRun(
                tool="fsam",
                seconds=meas.seconds,
                peak_mb=meas.peak_mb,
                reports=len(result.reports),
                true_positives=tps,
                false_positives=fps,
            )
    return run


def run_all(
    profile: BenchProfile,
    tools: Tuple[str, ...] = TOOLS,
    subjects: Optional[List[Subject]] = None,
    track_memory: bool = True,
) -> List[SubjectRun]:
    return [
        run_subject(s, profile, tools, track_memory)
        for s in (subjects if subjects is not None else SUBJECTS)
    ]
