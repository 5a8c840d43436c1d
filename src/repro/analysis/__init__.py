"""Public analysis facade: :class:`Canary`, its config and report types."""

from .budget import Budget
from .config import AnalysisConfig

# driver first: its import chain reaches repro.pointer before
# repro.threads, which is the only safe initialization order for that
# (pre-existing) import cycle.  passes hits threads first.
from .driver import AnalysisReport, Canary
from .passes import AnalysisPipeline, PassManager

__all__ = [
    "AnalysisConfig",
    "AnalysisPipeline",
    "AnalysisReport",
    "Budget",
    "Canary",
    "PassManager",
]
