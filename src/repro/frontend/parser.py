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
from .lexer import Token, TokenKind, tokenize
from .source import ParseError

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


def parse_program(source: str, filename: str = "<input>") -> A.Program:
    """Parse MiniCC source text into an AST."""
    return Parser(tokenize(source, filename)).parse_program()


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        # Reads past the end see the last token (EOF from ``tokenize``).
        self._last = tokens[-1]

    # ----- token helpers ------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        try:
            return self._tokens[self._pos + ahead]
        except IndexError:
            return self._last

    def _next(self) -> Token:
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._tokens[pos]
        except IndexError:
            return self._last

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.location)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind != TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.location)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._pos += 1
            return True
        return False

    def _at_type(self) -> bool:
        tok = self._peek()
        return tok.is_keyword("int") or tok.is_keyword("void")

    # ----- top level ----------------------------------------------------

    def parse_program(self) -> A.Program:
        start = self._peek().location
        program = A.Program(location=start)
        while self._peek().kind != TokenKind.EOF:
            tok = self._peek()
            if tok.is_keyword("extern"):
                program.externs.append(self._parse_extern())
            elif self._at_type():
                self._parse_toplevel(program)
            else:
                raise ParseError(
                    f"expected declaration, found {tok.text!r}", tok.location
                )
        return program

    def _parse_extern(self) -> A.ExternDecl:
        loc = self._next().location  # 'extern'
        tok = self._next()
        if not tok.is_keyword("int"):
            raise ParseError("extern declarations must be 'extern int'", tok.location)
        name = self._expect_ident()
        self._expect_punct(";")
        return A.ExternDecl(location=loc, name=name.text)

    def _parse_toplevel(self, program: A.Program) -> None:
        ty = self._parse_type()
        name = self._expect_ident()
        if self._peek().is_punct("("):
            program.functions.append(self._parse_funcdef(ty, name))
        else:
            self._expect_punct(";")
            program.globals.append(
                A.GlobalDecl(location=name.location, type=ty, name=name.text)
            )

    def _parse_type(self) -> A.Type:
        tok = self._next()
        if not (tok.is_keyword("int") or tok.is_keyword("void")):
            raise ParseError(f"expected a type, found {tok.text!r}", tok.location)
        depth = 0
        while self._accept_punct("*"):
            depth += 1
        return A.Type(base=tok.text, pointer_depth=depth)

    def _parse_funcdef(self, return_type: A.Type, name: Token) -> A.FuncDef:
        self._expect_punct("(")
        params: List[A.Param] = []
        if not self._peek().is_punct(")"):
            while True:
                if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                    self._next()
                    break
                ty = self._parse_type()
                pname = self._expect_ident()
                params.append(A.Param(type=ty, name=pname.text))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._parse_block()
        return A.FuncDef(
            location=name.location,
            name=name.text,
            return_type=return_type,
            params=params,
            body=body,
        )

    # ----- statements ----------------------------------------------------

    def _parse_block(self) -> A.BlockStmt:
        open_tok = self._expect_punct("{")
        body: List[A.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind == TokenKind.EOF:
                raise ParseError("unterminated block", open_tok.location)
            body.append(self._parse_stmt())
        self._expect_punct("}")
        return A.BlockStmt(location=open_tok.location, body=body)

    def _parse_stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("return"):
            return self._parse_return()
        if self._at_type():
            return self._parse_vardecl()
        if tok.kind == TokenKind.IDENT and tok.text == "fork" and self._peek(1).is_punct("("):
            return self._parse_fork()
        if tok.kind == TokenKind.IDENT and tok.text == "join" and self._peek(1).is_punct("("):
            return self._parse_join()
        if tok.is_punct("*"):
            return self._parse_store()
        if tok.kind == TokenKind.IDENT and self._peek(1).is_punct("="):
            name = self._next()
            self._next()  # '='
            value = self._parse_expr()
            self._expect_punct(";")
            return A.AssignStmt(location=name.location, name=name.text, value=value)
        expr = self._parse_expr()
        if self._accept_punct("="):
            # Assignment through a parsed lvalue, e.g. ``p[i] = e;``.
            value = self._parse_expr()
            self._expect_punct(";")
            if isinstance(expr, A.IndexExpr):
                return A.IndexStoreStmt(
                    location=tok.location,
                    base=expr.base,
                    index=expr.index,
                    value=value,
                )
            if isinstance(expr, A.VarExpr):
                return A.AssignStmt(location=tok.location, name=expr.name, value=value)
            raise ParseError("invalid assignment target", tok.location)
        self._expect_punct(";")
        return A.ExprStmt(location=tok.location, expr=expr)

    def _parse_vardecl(self) -> A.VarDeclStmt:
        ty = self._parse_type()
        name = self._expect_ident()
        init: Optional[A.Expr] = None
        if self._accept_punct("="):
            init = self._parse_expr()
        self._expect_punct(";")
        return A.VarDeclStmt(location=name.location, type=ty, name=name.text, init=init)

    def _parse_store(self) -> A.StoreStmt:
        star = self._expect_punct("*")
        pointer = self._parse_unary()
        self._expect_punct("=")
        value = self._parse_expr()
        self._expect_punct(";")
        return A.StoreStmt(location=star.location, pointer=pointer, value=value)

    def _parse_if(self) -> A.IfStmt:
        tok = self._next()  # 'if'
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then_body = self._parse_block()
        else_body: Optional[A.BlockStmt] = None
        if self._peek().is_keyword("else"):
            self._next()
            if self._peek().is_keyword("if"):
                nested = self._parse_if()
                else_body = A.BlockStmt(location=nested.location, body=[nested])
            else:
                else_body = self._parse_block()
        return A.IfStmt(
            location=tok.location, cond=cond, then_body=then_body, else_body=else_body
        )

    def _parse_while(self) -> A.WhileStmt:
        tok = self._next()  # 'while'
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_block()
        return A.WhileStmt(location=tok.location, cond=cond, body=body)

    def _parse_return(self) -> A.ReturnStmt:
        tok = self._next()  # 'return'
        value: Optional[A.Expr] = None
        if not self._peek().is_punct(";"):
            value = self._parse_expr()
        self._expect_punct(";")
        return A.ReturnStmt(location=tok.location, value=value)

    def _parse_fork(self) -> A.ForkStmt:
        tok = self._next()  # 'fork'
        self._expect_punct("(")
        thread = self._expect_ident()
        self._expect_punct(",")
        callee = self._expect_ident()
        args: List[A.Expr] = []
        while self._accept_punct(","):
            args.append(self._parse_expr())
        self._expect_punct(")")
        self._expect_punct(";")
        return A.ForkStmt(
            location=tok.location, thread=thread.text, callee=callee.text, args=args
        )

    def _parse_join(self) -> A.JoinStmt:
        tok = self._next()  # 'join'
        self._expect_punct("(")
        thread = self._expect_ident()
        self._expect_punct(")")
        self._expect_punct(";")
        return A.JoinStmt(location=tok.location, thread=thread.text)

    # ----- expressions ----------------------------------------------------

    def _parse_expr(self) -> A.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> A.Expr:
        """Precedence climbing over ``_BINARY_PRECEDENCE``: operators at
        ``min_level`` or tighter, left-associative within a level."""
        lhs = self._parse_unary()
        while True:
            op = self._peek()
            level = _BINARY_LEVEL.get(op.text)
            if level is None or level < min_level or op.kind != TokenKind.PUNCT:
                return lhs
            self._pos += 1
            rhs = self._parse_binary(level + 1)
            lhs = A.BinaryExpr(location=op.location, op=op.text, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind == TokenKind.PUNCT:
            if tok.text == "-" or tok.text == "!":
                self._pos += 1
                operand = self._parse_unary()
                return A.UnaryExpr(location=tok.location, op=tok.text, operand=operand)
            if tok.text == "*":
                self._pos += 1
                operand = self._parse_unary()
                return A.DerefExpr(location=tok.location, operand=operand)
            if tok.text == "&":
                self._pos += 1
                name = self._expect_ident()
                return A.AddrOfExpr(location=tok.location, name=name.text)
        return self._parse_primary()

    def _parse_primary(self) -> A.Expr:
        expr = self._parse_atom()
        # Postfix indexing: p[i], p[i][j], f(x)[k] ...
        while self._peek().is_punct("["):
            bracket = self._next()
            index = self._parse_expr()
            self._expect_punct("]")
            expr = A.IndexExpr(location=bracket.location, base=expr, index=index)
        return expr

    def _parse_atom(self) -> A.Expr:
        tok = self._next()
        if tok.kind == TokenKind.NUMBER:
            return A.NumberExpr(location=tok.location, value=int(tok.text))
        if tok.is_keyword("null"):
            return A.NullExpr(location=tok.location)
        if tok.kind == TokenKind.IDENT:
            if self._peek().is_punct("("):
                self._next()  # '('
                args: List[A.Expr] = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                return A.CallExpr(location=tok.location, callee=tok.text, args=args)
            return A.VarExpr(location=tok.location, name=tok.text)
        if tok.is_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)
