"""Lexer for MiniCC, the concurrent C-like input language.

MiniCC is the concrete syntax for the paper's Fig. 3 language: functions,
integers and pointers, ``malloc``/``free``, ``fork``/``join``,
``lock``/``unlock``, branches and loops, and a handful of intrinsic
source/sink operations used by the checkers.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from .source import LexError, LineIndex, Location

__all__ = ["Token", "TokenKind", "scan", "tokenize", "KEYWORDS"]


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

#: keyword -> itself, so every keyword tag is the one interned string
_KEYWORD_TAG = {keyword: keyword for keyword in KEYWORDS}

#: One token or comment after optional white space.  Alternatives are
#: tried in order: comments before the ``/`` punctuator, two-char
#: punctuators before their one-char prefixes.  A digit run followed by a
#: non-ASCII character, a non-ASCII letter, and every character no other
#: alternative takes fall to ``other``.
_MASTER = re.compile(
    r"""
    [ \t\r\n]*
    (?:
        (?P<word>[A-Za-z_]\w*)
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


def scan(source: str, filename: str = "<input>") -> Tuple[List[str], List[str], List[int]]:
    """The tokens of MiniCC source text as three parallel lists: each
    token's *tag*, text and offset.  Raises :class:`LexError` on bad input.

    A keyword's or punctuator's tag is its text; any other token's tag is
    its :class:`TokenKind` (``ident``, ``number``, ``string``, ``eof``),
    which no keyword or punctuator spells.  So one comparison of a tag
    tests kind and text at once.  The last token is EOF; after a ``//``
    comment that runs to the end of the text it sits at the comment.
    """
    tags: List[str] = []
    texts: List[str] = []
    offsets: List[int] = []
    tag_of, text_of, offset_of = tags.append, texts.append, offsets.append
    keyword_tag = _KEYWORD_TAG.get
    ident = TokenKind.IDENT
    n = len(source)
    eof = n
    pos = 0
    while True:
        for m in _MASTER.finditer(source, pos):
            group = m.lastgroup
            if group == "word":
                text = m[group]
                tag_of(keyword_tag(text, ident))
            elif group == "punct":
                text = m[group]
                tag_of(text)
            elif group == "number":
                text = m[group]
                tag_of(TokenKind.NUMBER)
            elif group == "string":
                text = m[group][1:-1]
                tag_of(TokenKind.STRING)
            elif group == "line_comment":
                if m.end() == n:
                    eof = m.start(group)
                continue
            elif group == "block_comment":
                continue
            elif group == "end":
                tag_of(TokenKind.EOF)
                text_of("")
                offset_of(eof)
                return tags, texts, offsets
            else:  # other, open_comment: leave the loop
                break
            text_of(text)
            offset_of(m.start(group))
        start = m.start(group)
        if group == "open_comment":
            location = LineIndex(source, filename).location(start)
            raise LexError("unterminated block comment", location)
        tag, text = _scan_other(source, start, filename)
        tag_of(tag)
        text_of(text)
        offset_of(start)
        pos = start + len(text)


def _scan_other(source: str, start: int, filename: str) -> Tuple[str, str]:
    """The tag and text of the token at ``start`` that the master regex
    leaves to :class:`str` predicates (a non-ASCII digit run or
    identifier); raises the :class:`LexError` for any other character."""
    ch = source[start]
    if ch.isdigit():
        end = start + 1
        while end < len(source) and source[end].isdigit():
            end += 1
        return TokenKind.NUMBER, source[start:end]
    if ch.isalpha():
        text = _WORD.match(source, start).group()
        return _KEYWORD_TAG.get(text, TokenKind.IDENT), text
    location = LineIndex(source, filename).location(start)
    if ch == '"':
        raise LexError("unterminated string literal", location)
    raise LexError(f"unexpected character {ch!r}", location)


class Token(NamedTuple):
    """One token of :func:`tokenize`."""

    kind: str
    text: str
    location: Location


_KINDS = frozenset({TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING, TokenKind.EOF})


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize MiniCC source text into :class:`Token` records; raises
    :class:`LexError` on bad input.  The parser reads :func:`scan`'s lists
    instead and builds a :class:`Location` only for the tokens it keeps."""
    tags, texts, offsets = scan(source, filename)
    lines = LineIndex(source, filename)
    return [
        Token(
            tag if tag in _KINDS else TokenKind.KEYWORD if tag in KEYWORDS else TokenKind.PUNCT,
            text,
            lines.location(offset),
        )
        for tag, text, offset in zip(tags, texts, offsets)
    ]
