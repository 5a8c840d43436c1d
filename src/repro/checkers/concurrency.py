"""Shared helpers for the concurrency checker families (race, atomicity,
order violation).

These are the structural pre-SMT filters: deterministic object
enumeration (``MemObject`` hashes by identity, so raw set iteration
order is not stable across runs — deterministic reports require the
sorted order; the UAF and double-free sources use it too), lock-set
disjointness, and condition-variable ordering.
Everything that survives them still has to pass the solver's Φ_all.
"""

from __future__ import annotations

from typing import Iterable, List

from ..ir.instructions import Instruction
from ..ir.values import MemObject

__all__ = ["lockset_disjoint", "sorted_objects", "sync_free"]


def sorted_objects(objects: Iterable[MemObject]) -> List[MemObject]:
    """Deterministic enumeration order for a set of memory objects."""
    return sorted(objects, key=lambda o: (o.name, o.kind, o.context))


def lockset_disjoint(lock_analysis, a: Instruction, b: Instruction) -> bool:
    """No common mutex protects both statements (trivially true without
    the lock extension — ``model_locks=False`` means no lock-set filter)."""
    if lock_analysis is None:
        return True
    return not lock_analysis.common_mutex_regions(a, b)


def sync_free(orders, a: Instruction, b: Instruction) -> bool:
    """Neither direction of the pair is ordered by a signal→wait chain.

    ``orders`` is the realizability checker's
    :class:`~repro.detection.partial_order.OrderConstraintBuilder`; its
    lazily-built condition-variable analysis answers the extended
    happens-before query.
    """
    condvars = orders.condvars
    if not condvars.has_sync():
        return True
    return condvars.sync_free(a, b)
