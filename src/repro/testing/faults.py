"""Deterministic fault injection for the degradation paths.

The resource-governance layer promises that a crashing pass or a
stalled solver query degrades one report instead of taking down the
run.  Promises about error paths rot unless they are exercised, so the
pipeline carries named **fault points** — cheap no-op hooks (:func:`fault_point`) at the places failures occur in the wild:

* ``pass:<name>`` — entry of every pipeline pass (``pass:pointer``,
  ``pass:interference``, ``pass:detect:use-after-free``, ...);
* ``solver:solve`` — entry of :func:`repro.smt.solver.solve_formula`,
  i.e. every SMT query.

A :class:`FaultPlan` arms a set of points with one of these behaviors:

* **crash** — raise :class:`FaultError` (a pass/checker exception);
* **stall** — sleep ``stall_seconds`` (a slow query that should trip
  the per-query solver deadline);
* **interrupt** / **cancel** — raise control flow that must propagate.

Everything is deterministic: which points fire is fixed by the plan,
and :func:`plan_from_seed` derives a reproducible plan from an integer
seed — CI runs the suite under a ``CANARY_FAULT_SEED`` matrix to sweep
scenarios without any test-side randomness.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional

__all__ = [
    "SEED_ENV_VAR",
    "FaultError",
    "FaultPlan",
    "clear",
    "fault_point",
    "inject",
    "install",
    "plan_from_seed",
]

SEED_ENV_VAR = "CANARY_FAULT_SEED"


class FaultError(RuntimeError):
    """Raised by an armed ``crash`` fault point."""


@dataclass(frozen=True)
class FaultPlan:
    """Which fault points fire, and how."""

    crash: FrozenSet[str] = frozenset()
    stall: FrozenSet[str] = frozenset()
    #: raise ``KeyboardInterrupt`` — control flow that must *propagate*
    #: out of the pipeline (degradation catches never swallow it)
    interrupt: FrozenSet[str] = frozenset()
    #: raise :class:`~repro.analysis.budget.BudgetExceededError` — a hard
    #: budget unwind that must likewise propagate, never degrade
    cancel: FrozenSet[str] = frozenset()
    stall_seconds: float = 0.2

    @staticmethod
    def make(
        crash: Iterable[str] = (),
        stall: Iterable[str] = (),
        interrupt: Iterable[str] = (),
        cancel: Iterable[str] = (),
        stall_seconds: float = 0.2,
    ) -> "FaultPlan":
        return FaultPlan(
            crash=frozenset(crash),
            stall=frozenset(stall),
            interrupt=frozenset(interrupt),
            cancel=frozenset(cancel),
            stall_seconds=stall_seconds,
        )

    def points(self) -> FrozenSet[str]:
        return self.crash | self.stall | self.interrupt | self.cancel


@dataclass
class _State:
    plan: Optional[FaultPlan] = None
    #: fired-point counters (diagnostics for tests)
    fired: Dict[str, int] = field(default_factory=dict)


_state = _State()
_lock = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process."""
    with _lock:
        _state.plan = plan
        _state.fired = {}


def clear() -> None:
    with _lock:
        _state.plan = None


@contextmanager
def inject(plan: FaultPlan):
    """``with inject(plan): ...`` — arm, run, always disarm."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def fired(name: str) -> int:
    """How often ``name`` fired in this process (test diagnostics)."""
    with _lock:
        return _state.fired.get(name, 0)


def fault_point(name: str) -> None:
    """A named hook on a production code path; no-op unless a plan arms it.

    Ordering on a multiply-armed point: stall, then interrupt/cancel,
    then crash — so a single point can model "slow, then fails" by arming
    stall+crash.
    """
    plan = _state.plan
    if plan is None or name not in plan.points():
        return
    with _lock:
        _state.fired[name] = _state.fired.get(name, 0) + 1
    if name in plan.stall:
        time.sleep(plan.stall_seconds)
    if name in plan.interrupt:
        raise KeyboardInterrupt(f"injected interrupt at {name!r}")
    if name in plan.cancel:
        from ..analysis.budget import BudgetExceededError

        raise BudgetExceededError(where=name, reason="injected budget expiry")
    if name in plan.crash:
        raise FaultError(f"injected fault at {name!r}")


# ----- seeded scenario sampling (the CI fault matrix) -----------------------

#: points a seeded plan may crash — every one must degrade gracefully
CRASHABLE_POINTS = (
    "pass:verify",
    "pass:pointer",
    "pass:tcg",
    "pass:mhp",
    "pass:interference",
    "pass:detect:use-after-free",
)


def plan_from_seed(seed: int, stall_seconds: float = 0.2) -> FaultPlan:
    """A deterministic fault scenario for an integer seed.

    Seed 0 is the empty plan (the control row of the CI matrix).  Other
    seeds deterministically pick a crash point, and every third seed
    additionally stalls the solver — covering crash-only, crash+stall
    combinations without randomness inside any single run.
    """
    if seed <= 0:
        return FaultPlan()
    crash = {CRASHABLE_POINTS[(seed - 1) % len(CRASHABLE_POINTS)]}
    stall = {"solver:solve"} if seed % 3 == 0 else set()
    return FaultPlan.make(crash=crash, stall=stall, stall_seconds=stall_seconds)


def seed_from_env(default: int = 0) -> int:
    """The CI matrix seed (``CANARY_FAULT_SEED``), or ``default``."""
    try:
        return int(os.environ.get(SEED_ENV_VAR, default))
    except ValueError:
        return default
