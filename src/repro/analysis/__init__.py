"""Public analysis facade: :class:`Canary`, its config and report types."""

from .budget import Budget
from .config import AnalysisConfig

# driver first: its import chain reaches repro.pointer before
# repro.threads, which is the only safe initialization order for that
# (pre-existing) import cycle.  artifacts/passes hit threads first.
from .driver import AnalysisReport, Canary
from .artifacts import ArtifactStore
from .passes import AnalysisPipeline, PassManager

__all__ = [
    "AnalysisConfig",
    "AnalysisPipeline",
    "AnalysisReport",
    "ArtifactStore",
    "Budget",
    "Canary",
    "PassManager",
]
