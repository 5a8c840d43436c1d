"""Recursive-descent parser for MiniCC.

Grammar (EBNF):

    program     := (extern | global | funcdef)*
    extern      := 'extern' 'int' IDENT ';'
    global      := type IDENT ';'                    (at top level)
    funcdef     := type IDENT '(' params? ')' block
    params      := param (',' param)*
    param       := type IDENT
    type        := ('int' | 'void') '*'*
    block       := '{' stmt* '}'
    stmt        := vardecl | assign | store | if | while | return
                 | fork | join | exprstmt | block
    vardecl     := type IDENT ('=' expr)? ';'
    assign      := IDENT '=' expr ';'
    store       := '*' unary '=' expr ';'
    if          := 'if' '(' expr ')' block ('else' (block | if))?
    while       := 'while' '(' expr ')' block
    return      := 'return' expr? ';'
    fork        := 'fork' '(' IDENT ',' IDENT (',' expr)* ')' ';'
    join        := 'join' '(' IDENT ')' ';'
    exprstmt    := expr ';'

Expressions use standard C precedence for the supported operators.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as A
from .lexer import TokenKind, scan
from .source import LineIndex, Location, ParseError

__all__ = ["parse_program", "Parser"]


_BINARY_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]

#: binary operator -> its level in ``_BINARY_PRECEDENCE`` (higher binds tighter)
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_PRECEDENCE) for op in ops}

IDENT = TokenKind.IDENT
NUMBER = TokenKind.NUMBER
EOF = TokenKind.EOF


def parse_program(source: str, filename: str = "<input>") -> A.Program:
    """Parse MiniCC source text into an AST."""
    return Parser(source, filename).parse_program()


class Parser:
    """Recursive descent over the parallel token lists of :func:`scan`.

    A token test compares the current token's tag (``self._tags[self._pos]
    == "("``): a keyword's or punctuator's tag is its text, any other
    token's tag its kind.  Tokens are referred to by index, and a
    :class:`Location` is built only for a token that an AST node keeps.
    The parser never consumes the final EOF token, so the current token
    and the one after a non-EOF token are always in range.
    """

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self._tags, self._texts, self._offsets = scan(source, filename)
        self._lines = LineIndex(source, filename)
        self._pos = 0

    # ----- token helpers ------------------------------------------------

    def _location(self, index: int) -> Location:
        return self._lines.location(self._offsets[index])

    def _error(self, message: str, index: int) -> ParseError:
        return ParseError(message, self._location(index))

    def _expect(self, tag: str) -> int:
        """Consume the current token, which must carry ``tag``; its index."""
        pos = self._pos
        if self._tags[pos] != tag:
            expected = "identifier" if tag == IDENT else repr(tag)
            raise self._error(f"expected {expected}, found {self._texts[pos]!r}", pos)
        self._pos = pos + 1
        return pos

    def _accept(self, tag: str) -> bool:
        if self._tags[self._pos] == tag:
            self._pos += 1
            return True
        return False

    # ----- top level ----------------------------------------------------

    def parse_program(self) -> A.Program:
        program = A.Program(location=self._location(0))
        tags = self._tags
        while tags[self._pos] != EOF:
            tag = tags[self._pos]
            if tag == "extern":
                program.externs.append(self._parse_extern())
            elif tag == "int" or tag == "void":
                self._parse_toplevel(program)
            else:
                found = self._texts[self._pos]
                raise self._error(f"expected declaration, found {found!r}", self._pos)
        return program

    def _parse_extern(self) -> A.ExternDecl:
        extern = self._pos
        self._pos += 1
        if self._tags[self._pos] != "int":
            raise self._error("extern declarations must be 'extern int'", self._pos)
        self._pos += 1
        name = self._expect(IDENT)
        self._expect(";")
        return A.ExternDecl(location=self._location(extern), name=self._texts[name])

    def _parse_toplevel(self, program: A.Program) -> None:
        ty = self._parse_type()
        name = self._expect(IDENT)
        if self._tags[self._pos] == "(":
            program.functions.append(self._parse_funcdef(ty, name))
        else:
            self._expect(";")
            program.globals.append(
                A.GlobalDecl(location=self._location(name), type=ty, name=self._texts[name])
            )

    def _parse_type(self) -> A.Type:
        pos = self._pos
        base = self._tags[pos]
        if base != "int" and base != "void":
            raise self._error(f"expected a type, found {self._texts[pos]!r}", pos)
        self._pos = pos + 1
        depth = 0
        while self._accept("*"):
            depth += 1
        return A.Type(base=base, pointer_depth=depth)

    def _parse_funcdef(self, return_type: A.Type, name: int) -> A.FuncDef:
        tags = self._tags
        self._expect("(")
        params: List[A.Param] = []
        if tags[self._pos] != ")":
            while True:
                if tags[self._pos] == "void" and tags[self._pos + 1] == ")":
                    self._pos += 1
                    break
                ty = self._parse_type()
                pname = self._expect(IDENT)
                params.append(A.Param(type=ty, name=self._texts[pname]))
                if not self._accept(","):
                    break
        self._expect(")")
        body = self._parse_block()
        return A.FuncDef(
            location=self._location(name),
            name=self._texts[name],
            return_type=return_type,
            params=params,
            body=body,
        )

    # ----- statements ----------------------------------------------------

    def _parse_block(self) -> A.BlockStmt:
        tags = self._tags
        opening = self._expect("{")
        body: List[A.Stmt] = []
        while tags[self._pos] != "}":
            if tags[self._pos] == EOF:
                raise self._error("unterminated block", opening)
            body.append(self._parse_stmt())
        self._pos += 1
        return A.BlockStmt(location=self._location(opening), body=body)

    def _parse_stmt(self) -> A.Stmt:
        pos = self._pos
        tag = self._tags[pos]
        if tag == IDENT:
            after = self._tags[pos + 1]
            if after == "=":
                self._pos = pos + 2
                value = self._parse_expr()
                self._expect(";")
                return A.AssignStmt(
                    location=self._location(pos), name=self._texts[pos], value=value
                )
            if after == "(":
                text = self._texts[pos]
                if text == "fork":
                    return self._parse_fork()
                if text == "join":
                    return self._parse_join()
        elif tag == "{":
            return self._parse_block()
        elif tag == "if":
            return self._parse_if()
        elif tag == "int" or tag == "void":
            return self._parse_vardecl()
        elif tag == "return":
            return self._parse_return()
        elif tag == "while":
            return self._parse_while()
        elif tag == "*":
            return self._parse_store()
        expr = self._parse_expr()
        if self._accept("="):
            # Assignment through a parsed lvalue, e.g. ``p[i] = e;``.
            value = self._parse_expr()
            self._expect(";")
            if isinstance(expr, A.IndexExpr):
                return A.IndexStoreStmt(
                    location=self._location(pos),
                    base=expr.base,
                    index=expr.index,
                    value=value,
                )
            if isinstance(expr, A.VarExpr):
                return A.AssignStmt(location=self._location(pos), name=expr.name, value=value)
            raise self._error("invalid assignment target", pos)
        self._expect(";")
        return A.ExprStmt(location=self._location(pos), expr=expr)

    def _parse_vardecl(self) -> A.VarDeclStmt:
        ty = self._parse_type()
        name = self._expect(IDENT)
        init: Optional[A.Expr] = None
        if self._accept("="):
            init = self._parse_expr()
        self._expect(";")
        return A.VarDeclStmt(
            location=self._location(name), type=ty, name=self._texts[name], init=init
        )

    def _parse_store(self) -> A.StoreStmt:
        star = self._expect("*")
        pointer = self._parse_unary()
        self._expect("=")
        value = self._parse_expr()
        self._expect(";")
        return A.StoreStmt(location=self._location(star), pointer=pointer, value=value)

    def _parse_if(self) -> A.IfStmt:
        keyword = self._pos  # 'if'
        self._pos += 1
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then_body = self._parse_block()
        else_body: Optional[A.BlockStmt] = None
        if self._tags[self._pos] == "else":
            self._pos += 1
            if self._tags[self._pos] == "if":
                nested = self._parse_if()
                else_body = A.BlockStmt(location=nested.location, body=[nested])
            else:
                else_body = self._parse_block()
        return A.IfStmt(
            location=self._location(keyword),
            cond=cond,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_while(self) -> A.WhileStmt:
        keyword = self._pos  # 'while'
        self._pos += 1
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_block()
        return A.WhileStmt(location=self._location(keyword), cond=cond, body=body)

    def _parse_return(self) -> A.ReturnStmt:
        keyword = self._pos  # 'return'
        self._pos += 1
        value: Optional[A.Expr] = None
        if self._tags[self._pos] != ";":
            value = self._parse_expr()
        self._expect(";")
        return A.ReturnStmt(location=self._location(keyword), value=value)

    def _parse_fork(self) -> A.ForkStmt:
        keyword = self._pos  # 'fork'
        self._pos += 2  # and '('
        thread = self._expect(IDENT)
        self._expect(",")
        callee = self._expect(IDENT)
        args: List[A.Expr] = []
        while self._accept(","):
            args.append(self._parse_expr())
        self._expect(")")
        self._expect(";")
        return A.ForkStmt(
            location=self._location(keyword),
            thread=self._texts[thread],
            callee=self._texts[callee],
            args=args,
        )

    def _parse_join(self) -> A.JoinStmt:
        keyword = self._pos  # 'join'
        self._pos += 2  # and '('
        thread = self._expect(IDENT)
        self._expect(")")
        self._expect(";")
        return A.JoinStmt(location=self._location(keyword), thread=self._texts[thread])

    # ----- expressions ----------------------------------------------------

    def _parse_expr(self) -> A.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> A.Expr:
        """Precedence climbing over ``_BINARY_PRECEDENCE``: operators at
        ``min_level`` or tighter, left-associative within a level."""
        lhs = self._parse_unary()
        while True:
            pos = self._pos
            op = self._tags[pos]
            level = _BINARY_LEVEL.get(op)
            if level is None or level < min_level:
                return lhs
            self._pos = pos + 1
            rhs = self._parse_binary(level + 1)
            lhs = A.BinaryExpr(location=self._location(pos), op=op, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> A.Expr:
        pos = self._pos
        tag = self._tags[pos]
        if tag == "-" or tag == "!":
            self._pos = pos + 1
            operand = self._parse_unary()
            return A.UnaryExpr(location=self._location(pos), op=tag, operand=operand)
        if tag == "*":
            self._pos = pos + 1
            operand = self._parse_unary()
            return A.DerefExpr(location=self._location(pos), operand=operand)
        if tag == "&":
            self._pos = pos + 1
            name = self._expect(IDENT)
            return A.AddrOfExpr(location=self._location(pos), name=self._texts[name])
        return self._parse_primary()

    def _parse_primary(self) -> A.Expr:
        expr = self._parse_atom()
        # Postfix indexing: p[i], p[i][j], f(x)[k] ...
        while self._tags[self._pos] == "[":
            bracket = self._pos
            self._pos += 1
            index = self._parse_expr()
            self._expect("]")
            expr = A.IndexExpr(location=self._location(bracket), base=expr, index=index)
        return expr

    def _parse_atom(self) -> A.Expr:
        pos = self._pos
        tag = self._tags[pos]
        if tag == IDENT:
            if self._tags[pos + 1] != "(":
                self._pos = pos + 1
                return A.VarExpr(location=self._location(pos), name=self._texts[pos])
            self._pos = pos + 2
            args: List[A.Expr] = []
            if self._tags[self._pos] != ")":
                while True:
                    args.append(self._parse_expr())
                    if not self._accept(","):
                        break
            self._expect(")")
            return A.CallExpr(location=self._location(pos), callee=self._texts[pos], args=args)
        if tag == NUMBER:
            self._pos = pos + 1
            return A.NumberExpr(location=self._location(pos), value=int(self._texts[pos]))
        if tag == "null":
            self._pos = pos + 1
            return A.NullExpr(location=self._location(pos))
        if tag == "(":
            self._pos = pos + 1
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise self._error(f"unexpected token {self._texts[pos]!r}", pos)
