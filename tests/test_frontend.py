"""Unit tests for the MiniCC lexer and parser."""

import pytest

from repro.frontend import LexError, ParseError, parse_program, tokenize
from repro.frontend import ast_nodes as A
from repro.frontend.lexer import TokenKind


class TestLexer:
    def test_simple_tokens(self):
        toks = tokenize("int x = 42;")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "ident", "punct", "number", "punct", "eof"]

    def test_two_char_puncts(self):
        toks = tokenize("a <= b && c == d || e != f")
        texts = [t.text for t in toks if t.kind == TokenKind.PUNCT]
        assert texts == ["<=", "&&", "==", "||", "!="]

    def test_line_comment(self):
        toks = tokenize("a // comment\nb")
        idents = [t.text for t in toks if t.kind == TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_block_comment(self):
        toks = tokenize("a /* multi\nline */ b")
        idents = [t.text for t in toks if t.kind == TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* oops")

    def test_locations(self):
        toks = tokenize("a\n  b", filename="f.mcc")
        assert toks[0].location.line == 1
        assert toks[1].location.line == 2
        assert toks[1].location.column == 3
        assert toks[1].location.filename == "f.mcc"

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int $x;")

    def test_keywords_vs_idents(self):
        toks = tokenize("int intx")
        assert toks[0].kind == TokenKind.KEYWORD
        assert toks[1].kind == TokenKind.IDENT


class TestLexerGolden:
    """Exact tokens, locations and errors, recorded from the per-character
    scanner this lexer replaced."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            # The EOF token after a trailing ``//`` comment keeps the
            # comment's column.
            (
                "int x; // done",
                [("keyword", "int", 1, 1), ("ident", "x", 1, 5), ("punct", ";", 1, 6),
                 ("eof", "", 1, 8)],
            ),
            ("a\n// c", [("ident", "a", 1, 1), ("eof", "", 2, 1)]),
            # Multi-line block comment, CRLF line endings, tabs (one column).
            (
                "int\tx;\r\n/* multi\r\n  line */\ty\t= 1;\r\n",
                [("keyword", "int", 1, 1), ("ident", "x", 1, 5), ("punct", ";", 1, 6),
                 ("ident", "y", 3, 11), ("punct", "=", 3, 13), ("number", "1", 3, 15),
                 ("punct", ";", 3, 16), ("eof", "", 4, 1)],
            ),
            # Every two-char punctuator next to its one-char prefix.
            (
                "a <= < b && & c || d == = e != ! f >= > g",
                [("ident", "a", 1, 1), ("punct", "<=", 1, 3), ("punct", "<", 1, 6),
                 ("ident", "b", 1, 8), ("punct", "&&", 1, 10), ("punct", "&", 1, 13),
                 ("ident", "c", 1, 15), ("punct", "||", 1, 17), ("ident", "d", 1, 20),
                 ("punct", "==", 1, 22), ("punct", "=", 1, 25), ("ident", "e", 1, 27),
                 ("punct", "!=", 1, 29), ("punct", "!", 1, 32), ("ident", "f", 1, 34),
                 ("punct", ">=", 1, 36), ("punct", ">", 1, 39), ("ident", "g", 1, 41),
                 ("eof", "", 1, 42)],
            ),
            # Identifiers that contain keywords.
            (
                "intx int xint if_ whilex returnx null_p",
                [("ident", "intx", 1, 1), ("keyword", "int", 1, 6), ("ident", "xint", 1, 10),
                 ("ident", "if_", 1, 15), ("ident", "whilex", 1, 19),
                 ("ident", "returnx", 1, 26), ("ident", "null_p", 1, 34), ("eof", "", 1, 40)],
            ),
        ],
    )
    def test_tokens(self, source, expected):
        toks = tokenize(source)
        assert [(t.kind, t.text, t.location.line, t.location.column) for t in toks] == expected

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("x;\n  @", "unexpected character '@'", 2, 3),
            ('a\n "abc', "unterminated string literal", 2, 2),
            ('a "b\nc"', "unterminated string literal", 1, 3),
            ("a\n /* open", "unterminated block comment", 2, 2),
        ],
    )
    def test_errors(self, source, message, line, column):
        with pytest.raises(LexError) as info:
            tokenize(source, filename="f.mcc")
        assert info.value.message == message
        assert str(info.value) == f"f.mcc:{line}:{column}: {message}"


class TestParser:
    def test_empty_function(self):
        prog = parse_program("void main() {}")
        assert len(prog.functions) == 1
        assert prog.functions[0].name == "main"
        assert prog.functions[0].body.body == []

    def test_params(self):
        prog = parse_program("int f(int a, int* b, int** c) { return a; }")
        f = prog.functions[0]
        assert [p.name for p in f.params] == ["a", "b", "c"]
        assert [p.type.pointer_depth for p in f.params] == [0, 1, 2]

    def test_extern_decl(self):
        prog = parse_program("extern int flag;\nvoid main() {}")
        assert [e.name for e in prog.externs] == ["flag"]

    def test_global_decl(self):
        prog = parse_program("int* g;\nvoid main() {}")
        assert [g.name for g in prog.globals] == ["g"]

    def test_vardecl_with_init(self):
        prog = parse_program("void main() { int x = 1 + 2; }")
        stmt = prog.functions[0].body.body[0]
        assert isinstance(stmt, A.VarDeclStmt)
        assert isinstance(stmt.init, A.BinaryExpr)

    def test_store_statement(self):
        prog = parse_program("void main() { int* p; *p = 3; }")
        stmt = prog.functions[0].body.body[1]
        assert isinstance(stmt, A.StoreStmt)

    def test_if_else_chain(self):
        prog = parse_program(
            "void main() { if (a) { } else if (b) { } else { } }"
        )
        stmt = prog.functions[0].body.body[0]
        assert isinstance(stmt, A.IfStmt)
        nested = stmt.else_body.body[0]
        assert isinstance(nested, A.IfStmt)
        assert nested.else_body is not None

    def test_while(self):
        prog = parse_program("void main() { while (x < 3) { x = x + 1; } }")
        stmt = prog.functions[0].body.body[0]
        assert isinstance(stmt, A.WhileStmt)

    def test_fork_join(self):
        prog = parse_program("void main() { fork(t1, w, x, y); join(t1); }")
        fork, join = prog.functions[0].body.body
        assert isinstance(fork, A.ForkStmt)
        assert fork.thread == "t1" and fork.callee == "w"
        assert len(fork.args) == 2
        assert isinstance(join, A.JoinStmt)
        assert join.thread == "t1"

    def test_precedence(self):
        prog = parse_program("void main() { int x = a || b && c == d + e * f; }")
        init = prog.functions[0].body.body[0].init
        assert init.op == "||"
        assert init.rhs.op == "&&"
        assert init.rhs.rhs.op == "=="

    def test_unary_operators(self):
        prog = parse_program("void main() { int x = !a; int y = -b; int* p = &c; int z = *q; }")
        body = prog.functions[0].body.body
        assert isinstance(body[0].init, A.UnaryExpr)
        assert isinstance(body[1].init, A.UnaryExpr)
        assert isinstance(body[2].init, A.AddrOfExpr)
        assert isinstance(body[3].init, A.DerefExpr)

    def test_call_expression(self):
        prog = parse_program("void main() { int x = f(1, g(2)); }")
        call = prog.functions[0].body.body[0].init
        assert isinstance(call, A.CallExpr)
        assert isinstance(call.args[1], A.CallExpr)

    def test_null_literal(self):
        prog = parse_program("void main() { int* p = null; }")
        assert isinstance(prog.functions[0].body.body[0].init, A.NullExpr)

    def test_parse_error_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("void main() { int x = 1 }")

    def test_parse_error_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_program("void main() { if (x) {")

    def test_parse_error_bad_toplevel(self):
        with pytest.raises(ParseError):
            parse_program("banana main() {}")

    def test_parenthesized_expr(self):
        prog = parse_program("void main() { int x = (a + b) * c; }")
        init = prog.functions[0].body.body[0].init
        assert init.op == "*"
        assert init.lhs.op == "+"

    def test_program_function_lookup(self):
        prog = parse_program("void a() {} void b() {}")
        assert prog.function("b").name == "b"
        with pytest.raises(KeyError):
            prog.function("c")


class TestParserGolden:
    """Exact parse errors (message and location), recorded from the parser
    over ``Token`` records that the tag-comparing parser replaced."""

    @pytest.mark.parametrize(
        "source, error",
        [
            ('void main() { int x = 1 }', "p.mcc:1:25: expected ';', found '}'"),
            ('void main() { if (x) {', 'p.mcc:1:22: unterminated block'),
            ('banana main() {}', "p.mcc:1:1: expected declaration, found 'banana'"),
            ('extern void x;', "p.mcc:1:8: extern declarations must be 'extern int'"),
            ('extern int 3;', "p.mcc:1:12: expected identifier, found '3'"),
            ('int', "p.mcc:1:4: expected identifier, found ''"),
            ('int x', "p.mcc:1:6: expected ';', found ''"),
            ('void main() { x = ; }', "p.mcc:1:19: unexpected token ';'"),
            ('void main() { fork(t, ); }', "p.mcc:1:23: expected identifier, found ')'"),
            ('void main() { join(3); }', "p.mcc:1:20: expected identifier, found '3'"),
            ('void main() { 1 = 2; }', 'p.mcc:1:15: invalid assignment target'),
            ('void main() { *p = 1 }', "p.mcc:1:22: expected ';', found '}'"),
            ('void main() { return 1 }', "p.mcc:1:24: expected ';', found '}'"),
            ('void main() { p[1 = 2; }', "p.mcc:1:19: expected ']', found '='"),
            ('void f(int a,) {}', "p.mcc:1:14: expected a type, found ')'"),
            ('void f(void, int) {}', "p.mcc:1:12: expected identifier, found ','"),
            ('void main() { int* p = &3; }', "p.mcc:1:25: expected identifier, found '3'"),
            ('void main() { f(1, 2; }', "p.mcc:1:21: expected ')', found ';'"),
            ('void main() { while (x) }', "p.mcc:1:25: expected '{', found '}'"),
            ('void main() { if x {} }', "p.mcc:1:18: expected '(', found 'x'"),
            ('void main() { int x = (1 + 2; }', "p.mcc:1:29: expected ')', found ';'"),
            ('void main() { else {} }', "p.mcc:1:15: unexpected token 'else'"),
        ],
    )
    def test_errors(self, source, error):
        with pytest.raises(ParseError) as info:
            parse_program(source, filename="p.mcc")
        assert str(info.value) == error

    @pytest.mark.parametrize("source", ["", "   // only a comment", "\n\n  /* c */ "])
    def test_empty_program_sits_at_its_eof(self, source):
        program = parse_program(source, filename="p.mcc")
        assert program.functions == [] and program.externs == [] and program.globals == []
        assert program.location == tokenize(source, filename="p.mcc")[-1].location
