"""Guarded reachability detection (paper §5, Fig. 1 right half)."""

from .partial_order import OrderConstraintBuilder, order_var
from .reachability import SinkReachabilityIndex
from .realizability import PathQuery, RealizabilityChecker, RealizabilityResult
from .search import (
    PathSearcher,
    SearchLimits,
    SearchStatistics,
    TruncationEvent,
    ValueFlowPath,
)

__all__ = [
    "OrderConstraintBuilder",
    "order_var",
    "PathQuery",
    "RealizabilityChecker",
    "RealizabilityResult",
    "SinkReachabilityIndex",
    "PathSearcher",
    "SearchLimits",
    "SearchStatistics",
    "TruncationEvent",
    "ValueFlowPath",
]
