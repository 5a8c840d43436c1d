"""IR values: the two disjoint variable classes of the paper's §3.1.

Following the LLVM convention the paper adopts, values split into
*top-level* variables (``V``, in SSA form, never aliased) and
*address-taken* memory objects (``O``, accessed only through load and
store instructions, the only values shareable between threads), plus
constants and function references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Value",
    "Variable",
    "VariableNamer",
    "MemObject",
    "IntConstant",
    "NullConstant",
    "SymbolicConstant",
    "FunctionRef",
    "NULL",
]


class Value:
    """Base class of IR values."""

    __slots__ = ()


_var_ids = itertools.count()


class Variable(Value):
    """A top-level SSA variable (paper's ``V``).

    ``source_name`` is the MiniCC variable it renames (if any); ``name``
    is the unique SSA name.  Identity is object identity — lowering
    creates each SSA variable exactly once.

    Immutable and without an instance dict.  Lowering makes one per SSA
    name, so ``__new__`` fills the slots through their descriptors rather
    than paying a frozen dataclass's ``object.__setattr__`` per field.
    """

    __slots__ = ("name", "source_name")

    name: str
    source_name: Optional[str]

    def __new__(cls, name: str, source_name: Optional[str] = None) -> "Variable":
        self = _new_object(cls)
        _set_name(self, name)
        _set_source_name(self, source_name)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Variable, (self.name, self.source_name))

    def __repr__(self) -> str:
        return f"%{self.name}"


_new_object = object.__new__
_set_name = Variable.name.__set__
_set_source_name = Variable.source_name.__set__


def fresh_variable(prefix: str, source_name: Optional[str] = None) -> Variable:
    """A process-unique variable (name embeds a global counter).

    Only for tests and ad-hoc construction.  Production lowering and
    dataflow go through :class:`VariableNamer` so names are a pure
    function of the source content — the counter here makes names depend
    on everything lowered earlier in the process, which breaks cross-run
    and cross-process identity of summaries and SMT atoms.
    """
    return Variable(name=f"{prefix}.{next(_var_ids)}", source_name=source_name)


class VariableNamer:
    """Deterministic, content-derived SSA names for one naming scope.

    Names are ``{scope}::{prefix}`` for the first request of a prefix
    and ``{scope}::{prefix}#N`` for the N-th repeat — a pure function of
    (scope, prefix, occurrence ordinal), so two processes lowering the
    same source mint byte-identical names.  ``::`` and ``#`` cannot
    occur in MiniCC identifiers, hence scopes can never collide with
    each other or with legacy ``fresh_variable`` names (which use ``.``
    plus a bare integer suffix on a counter that scoped names never
    consume).

    One namer per function (lowering) or per summary scope (dataflow);
    never share a namer across functions, or names become order-dependent
    again.
    """

    __slots__ = ("scope", "_counts")

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self._counts: dict = {}

    def fresh(self, prefix: str, source_name: Optional[str] = None) -> Variable:
        n = self._counts.get(prefix, 0)
        self._counts[prefix] = n + 1
        name = f"{self.scope}::{prefix}" if n == 0 else f"{self.scope}::{prefix}#{n}"
        return Variable(name, source_name)


@dataclass(frozen=True, eq=False)
class MemObject(Value):
    """An abstract memory object (paper's ``O``): a heap allocation site,
    a stack slot whose address is taken, or a global cell.

    ``context`` distinguishes heap clones per calling context (the paper
    is context-sensitive with nesting depth 6); the empty tuple is the
    outermost context.
    """

    name: str
    kind: str  # 'heap' | 'stack' | 'global'
    context: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        ctx = "@" + "/".join(self.context) if self.context else ""
        return f"o:{self.name}{ctx}"


@dataclass(frozen=True)
class IntConstant(Value):
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class NullConstant(Value):
    def __repr__(self) -> str:
        return "null"


NULL = NullConstant()


@dataclass(frozen=True)
class SymbolicConstant(Value):
    """An ``extern int``: an unknown-but-fixed configuration value.

    All reads observe the same symbolic integer, which is what makes
    branch conditions on the same extern *correlated across threads*
    (the ``theta`` conditions of the paper's Fig. 2).
    """

    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FunctionRef(Value):
    """A reference to a function used as a value (function pointer)."""

    name: str

    def __repr__(self) -> str:
        return f"@{self.name}"
