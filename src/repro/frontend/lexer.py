"""Lexer for MiniCC, the concurrent C-like input language.

MiniCC is the concrete syntax for the paper's Fig. 3 language: functions,
integers and pointers, ``malloc``/``free``, ``fork``/``join``,
``lock``/``unlock``, branches and loops, and a handful of intrinsic
source/sink operations used by the checkers.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .source import LexError, Location

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]


class TokenKind:
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "int",
        "void",
        "if",
        "else",
        "while",
        "return",
        "extern",
        "null",
        "struct",
    }
)

#: One token (or newline run, or comment) after optional horizontal space.
#: Alternatives are tried in order: comments before the ``/`` punctuator,
#: two-char punctuators before their one-char prefixes.  A digit run
#: followed by a non-ASCII character, a non-ASCII letter, and every
#: character no other alternative takes fall to ``other``.
_MASTER = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<newline>\n[ \t\r\n]*)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<number>[0-9]+(?![0-9]|[^\x00-\x7f]))
      | (?P<line_comment>//[^\n]*)
      | (?P<block_comment>/\*.*?\*/)
      | (?P<open_comment>/\*)
      | (?P<punct>&&|\|\||==|!=|<=|>=|[{}()\[\];,=<>+\-*/%!&.])
      | (?P<string>"[^"\n]*")
      | (?P<end>\Z)
      | (?P<other>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_WORD = re.compile(r"\w+")  # \w is exactly str.isalnum() or "_"


class Token(NamedTuple):
    """One token.  :func:`tokenize` builds it with ``tuple.__new__``,
    which skips the Python-level ``NamedTuple`` constructor."""

    kind: str
    text: str
    location: Location

    def is_punct(self, text: str) -> bool:
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == text


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize MiniCC source text; raises :class:`LexError` on bad input.

    A token's column is its offset from the start of its line plus one
    (a tab counts as one column).  The EOF token after a ``//`` comment
    that runs to the end of the text takes the comment's column.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    new = tuple.__new__
    n = len(source)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    eof_column = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        start = m.start(group)
        pos = m.end()
        if group == "word":
            text = source[start:pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(new(Token, (kind, text, Location(line, start - line_start + 1, filename))))
        elif group == "punct":
            text = source[start:pos]
            append(new(Token, (TokenKind.PUNCT, text, Location(line, start - line_start + 1, filename))))
        elif group == "newline" or group == "block_comment":
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, pos) + 1
        elif group == "number":
            text = source[start:pos]
            append(new(Token, (TokenKind.NUMBER, text, Location(line, start - line_start + 1, filename))))
        elif group == "string":
            text = source[start + 1 : pos - 1]
            append(new(Token, (TokenKind.STRING, text, Location(line, start - line_start + 1, filename))))
        elif group == "line_comment":
            if pos == n:
                eof_column = start - line_start + 1
        elif group == "end":
            column = eof_column or n - line_start + 1
            append(Token(TokenKind.EOF, "", Location(line, column, filename)))
            return tokens
        else:
            location = Location(line, start - line_start + 1, filename)
            if group == "open_comment":
                raise LexError("unterminated block comment", location)
            token = _scan_other(source, start, location)
            append(token)
            pos = start + len(token.text)


def _scan_other(source: str, start: int, location: Location) -> Token:
    """The token at ``start`` that the master regex leaves to :class:`str`
    predicates (a non-ASCII digit run or identifier); raises the
    :class:`LexError` for any other character there."""
    ch = source[start]
    if ch == '"':
        raise LexError("unterminated string literal", location)
    if ch.isdigit():
        end = start + 1
        while end < len(source) and source[end].isdigit():
            end += 1
        return Token(TokenKind.NUMBER, source[start:end], location)
    if ch.isalpha():
        text = _WORD.match(source, start).group()
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, location)
    raise LexError(f"unexpected character {ch!r}", location)
