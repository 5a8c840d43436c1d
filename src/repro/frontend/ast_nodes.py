"""Abstract syntax tree for MiniCC.

The AST mirrors the paper's Fig. 3 syntax: programs are lists of
functions; statements include assignments, pointer loads/stores,
branches, loops, calls, ``return``, ``fork``/``join``, plus the memory
and synchronization intrinsics the checkers consume (``malloc``,
``free``, ``lock``/``unlock``, source/sink markers).

Nodes are read-only after parsing: loop unrolling shares subtrees
between the parsed and the unrolled program and across unrolled
iterations, so no pass may write to a node.  They stay plain dataclasses
rather than frozen ones because on Python 3.11 a frozen dataclass takes
two to four times as long to construct, which parsing pays per node.

A node's ``location`` is an immutable ``__slots__``
:class:`~repro.frontend.source.Location`.  The parser builds it from the
offset of the token the node keeps when it builds the node; the lexer
makes no object per token, so tokens no node keeps (most punctuation and
keywords) never get one.  Unrolled copies and the lowered IR share these
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .source import Location

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "Program",
    "FuncDef",
    "Param",
    "ExternDecl",
    "GlobalDecl",
    "NumberExpr",
    "NullExpr",
    "VarExpr",
    "UnaryExpr",
    "BinaryExpr",
    "CallExpr",
    "DerefExpr",
    "AddrOfExpr",
    "IndexExpr",
    "VarDeclStmt",
    "AssignStmt",
    "StoreStmt",
    "IndexStoreStmt",
    "IfStmt",
    "WhileStmt",
    "ReturnStmt",
    "ExprStmt",
    "BlockStmt",
    "ForkStmt",
    "JoinStmt",
]


@dataclass
class Node:
    location: Location


# --------------------------------------------------------------------------
# Expressions


@dataclass
class Expr(Node):
    pass


@dataclass
class NumberExpr(Expr):
    value: int


@dataclass
class NullExpr(Expr):
    pass


@dataclass
class VarExpr(Expr):
    name: str


@dataclass
class UnaryExpr(Expr):
    op: str  # '-', '!'
    operand: Expr


@dataclass
class BinaryExpr(Expr):
    op: str  # + - * / % < <= > >= == != && ||
    lhs: Expr
    rhs: Expr


@dataclass
class CallExpr(Expr):
    """A call in expression position: ``f(a, b)`` or intrinsics like
    ``malloc()``, ``nondet()``, ``taint_source()``."""

    callee: str
    args: List[Expr]


@dataclass
class DerefExpr(Expr):
    """``*e`` in rvalue position (a load)."""

    operand: Expr


@dataclass
class AddrOfExpr(Expr):
    """``&x``: the address of a local or global variable."""

    name: str


@dataclass
class IndexExpr(Expr):
    """``p[e]`` in rvalue position.

    Arrays are monolithic (paper §6): the index is evaluated for effect
    but the access reads the array object as a whole, i.e. it lowers to
    a plain load through ``p``.
    """

    base: Expr
    index: Expr


# --------------------------------------------------------------------------
# Declarations / statements


@dataclass
class Type:
    """MiniCC types: ``int`` with N levels of pointer indirection, or void."""

    base: str  # 'int' or 'void'
    pointer_depth: int = 0

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth


@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDeclStmt(Stmt):
    type: Type
    name: str
    init: Optional[Expr]


@dataclass
class AssignStmt(Stmt):
    """``x = e;``"""

    name: str
    value: Expr


@dataclass
class StoreStmt(Stmt):
    """``*x = e;``"""

    pointer: Expr
    value: Expr


@dataclass
class IndexStoreStmt(Stmt):
    """``p[e1] = e2;`` — a store into the (monolithic) array object."""

    base: Expr
    index: Expr
    value: Expr


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: "BlockStmt"
    else_body: Optional["BlockStmt"]


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: "BlockStmt"


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr]


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect, e.g. ``free(p);`` or ``g(x);``"""

    expr: Expr


@dataclass
class BlockStmt(Stmt):
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ForkStmt(Stmt):
    """``fork(t, f, args...);`` — start thread ``t`` running ``f``.

    ``callee`` may name a function or a function-pointer variable (resolved
    via Steensgaard's analysis when building the thread call graph).
    """

    thread: str
    callee: str
    args: List[Expr]


@dataclass
class JoinStmt(Stmt):
    """``join(t);``"""

    thread: str


# --------------------------------------------------------------------------
# Top level


@dataclass
class Param:
    type: Type
    name: str


@dataclass
class FuncDef(Node):
    name: str
    return_type: Type
    params: List[Param]
    body: BlockStmt


@dataclass
class ExternDecl(Node):
    """``extern int name;`` — a symbolic configuration constant.

    Reads of an extern anywhere in the program denote the *same* symbolic
    value, which is how correlated branch conditions across threads (the
    ``theta`` of the paper's Fig. 2) arise.
    """

    name: str


@dataclass
class GlobalDecl(Node):
    """``int* g;`` at top level — a global memory cell (address-taken)."""

    type: Type
    name: str


@dataclass
class Program(Node):
    functions: List[FuncDef] = field(default_factory=list)
    externs: List[ExternDecl] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)

    def function(self, name: str) -> FuncDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")
