"""Runtime state for the concrete MiniCC interpreter."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Cell", "RuntimeValue", "Violation", "ThreadState", "NULL_VALUE"]

_cell_ids = itertools.count()


@dataclass(eq=False)
class Cell:
    """One concrete memory cell (allocated by ``malloc``/``&x``/global)."""

    origin: str  # description of the allocation site
    value: "RuntimeValue" = None
    freed: bool = False
    freed_by: Optional[int] = None  # label of the freeing statement

    def __post_init__(self):
        self.uid = next(_cell_ids)

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<cell#{self.uid} {self.origin} {state}>"


@dataclass(frozen=True)
class RuntimeValue:
    """A concrete value: an integer, a pointer to a cell, or a function
    reference — plus a taint bit (for the information-leak checker's
    dynamic confirmation)."""

    integer: Optional[int] = None
    pointer: Optional[Cell] = None
    tainted: bool = False
    func: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.integer == 0 and self.pointer is None

    def __repr__(self) -> str:
        if self.pointer is not None:
            return f"ptr({self.pointer!r})" + ("+taint" if self.tainted else "")
        return f"int({self.integer})" + ("+taint" if self.tainted else "")


NULL_VALUE = RuntimeValue(integer=0)


@dataclass
class Violation:
    """A dynamically observed memory-safety/flow violation."""

    kind: str  # 'use-after-free' | 'double-free' | 'null-deref' | 'info-leak'
    # (with Interpreter(concurrency_checks=True) additionally:
    #  'data-race' | 'atomicity-violation' | 'order-violation')
    label: int  # statement that triggered it
    detail: str

    def __repr__(self) -> str:
        return f"<violation {self.kind} at ℓ{self.label}: {self.detail}>"


@dataclass(eq=False)
class ThreadState:
    """One runnable thread: a stack of (function, program counter, env)."""

    tid: str
    # call stack frames: (function name, index into body, local env)
    frames: List[tuple] = field(default_factory=list)
    finished: bool = False

    def __repr__(self) -> str:
        state = "finished" if self.finished else f"{len(self.frames)} frame(s)"
        return f"<thread {self.tid} {state}>"
