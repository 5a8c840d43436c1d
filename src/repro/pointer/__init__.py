"""Pointer analyses.

* :mod:`repro.pointer.steensgaard` — unification-based, almost-linear;
  used for the thread call graph (paper §6).
* :mod:`repro.pointer.andersen` — inclusion-based, exhaustive; the core
  of the Saber-style baseline (paper §7.1).
* :mod:`repro.pointer.flowsensitive` — exhaustive flow-sensitive
  points-to; the core of the FSAM-style baseline (paper §7.1).

Canary itself performs no exhaustive points-to analysis: Alg. 1/2
piggyback the pointer reasoning on VFG construction (see
:mod:`repro.vfg`).
"""

from .andersen import AndersenResult, andersen
from .flowsensitive import FlowSensitiveResult, flow_sensitive_pointsto
from .steensgaard import SteensgaardResult, steensgaard

__all__ = [
    "AndersenResult",
    "andersen",
    "FlowSensitiveResult",
    "flow_sensitive_pointsto",
    "SteensgaardResult",
    "steensgaard",
]
