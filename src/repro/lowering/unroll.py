"""Bounded program construction: AST-level loop unrolling.

The paper (§3.1, §6) gains decidability by "structurally bounding the
concurrent programs by unrolling both loops and recursive functions to a
finite depth" — loops are unrolled twice in Canary's implementation.
``unroll_loops`` rewrites every ``while (c) B`` into nested
``if (c) { B ... }`` blocks of the configured depth; iterations beyond
the bound are not explored (a soundiness choice, as in the paper).

Recursive calls are bounded later, at summary-application time
(:mod:`repro.vfg.dataflow` cuts call chains at the context depth).

AST nodes are read-only after parsing, so the unrolled program is a new
spine over the input's nodes: only the ``Program``, its ``FuncDef``s and
the ``BlockStmt``/``IfStmt`` nodes on a path to a loop are rebuilt, and
every other subtree (conditions, leaf statements, expressions) is shared.
"""

from __future__ import annotations

from typing import List

from ..frontend import ast_nodes as A

__all__ = ["unroll_loops", "DEFAULT_UNROLL_DEPTH"]

DEFAULT_UNROLL_DEPTH = 2


def unroll_loops(program: A.Program, depth: int = DEFAULT_UNROLL_DEPTH) -> A.Program:
    """Return ``program`` with every while-loop unrolled ``depth`` times.
    The input AST is not modified; unchanged subtrees are shared with it."""
    if depth < 1:
        raise ValueError("unroll depth must be at least 1")
    functions = [
        A.FuncDef(
            location=func.location,
            name=func.name,
            return_type=func.return_type,
            params=func.params,
            body=_unroll_block(func.body, depth),
        )
        for func in program.functions
    ]
    return A.Program(
        location=program.location,
        functions=functions,
        externs=list(program.externs),
        globals=list(program.globals),
    )


def _unroll_block(block: A.BlockStmt, depth: int) -> A.BlockStmt:
    body = [_unroll_stmt(s, depth) for s in block.body]
    if all(new is old for new, old in zip(body, block.body)):
        return block
    return A.BlockStmt(location=block.location, body=body)


def _unroll_stmt(stmt: A.Stmt, depth: int) -> A.Stmt:
    if isinstance(stmt, A.WhileStmt):
        return _unroll_while(stmt, depth)
    if isinstance(stmt, A.IfStmt):
        then_body = _unroll_block(stmt.then_body, depth)
        else_body = _unroll_block(stmt.else_body, depth) if stmt.else_body else None
        if then_body is stmt.then_body and else_body is stmt.else_body:
            return stmt
        return A.IfStmt(
            location=stmt.location, cond=stmt.cond, then_body=then_body, else_body=else_body
        )
    if isinstance(stmt, A.BlockStmt):
        return _unroll_block(stmt, depth)
    return stmt


def _unroll_while(stmt: A.WhileStmt, depth: int) -> A.Stmt:
    """``while (c) B``  =>  ``if (c) { B' if (c) { B' ... } }`` (depth deep).

    ``B'`` is unrolled once and every iteration holds the *same* statement
    objects.  Iterations still lower to distinct instructions: the
    lowering mints labels and SSA names per emission, never from AST node
    identity — so a fork inside a loop yields one thread per unrolled
    iteration, which is how the paper's bounding "indirectly fixes the
    number of threads".
    """
    body = _unroll_block(stmt.body, depth).body
    inner: A.Stmt | None = None
    for _ in range(depth):
        stmts: List[A.Stmt] = list(body)
        if inner is not None:
            stmts.append(inner)
        inner = A.IfStmt(
            location=stmt.location,
            cond=stmt.cond,
            then_body=A.BlockStmt(location=stmt.location, body=stmts),
            else_body=None,
        )
    assert inner is not None
    return inner
