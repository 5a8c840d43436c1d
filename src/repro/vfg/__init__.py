"""Guarded value-flow graph construction (paper §4, Fig. 1 left half)."""

from .builder import VFGBundle
from .dataflow import ContentEntry, DataDependenceAnalysis, FunctionSummary
from .export import to_dot, to_json
from .graph import DefNode, NullNode, ObjNode, StoreNode, ValueFlowGraph, VFGEdge
from .interference import InterferenceAnalysis

__all__ = [
    "VFGBundle",
    "ContentEntry",
    "DataDependenceAnalysis",
    "FunctionSummary",
    "DefNode",
    "NullNode",
    "ObjNode",
    "StoreNode",
    "ValueFlowGraph",
    "VFGEdge",
    "InterferenceAnalysis",
    "to_dot",
    "to_json",
]
