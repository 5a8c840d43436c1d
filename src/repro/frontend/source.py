"""Source locations and diagnostics for the MiniCC frontend."""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["Location", "LineIndex", "FrontendError", "LexError", "ParseError"]


class Location:
    """A position in a source file (1-based line and column).

    Immutable, with value equality and hashing, and no instance dict.  The
    parser builds one per AST node, so this is a ``__slots__`` class that
    ``__new__`` fills through the slot descriptors: a frozen dataclass
    pays one ``object.__setattr__`` call per field and constructs in
    about twice the time.
    """

    __slots__ = ("line", "column", "filename")

    line: int
    column: int
    filename: str

    def __new__(cls, line: int, column: int, filename: str = "<input>") -> "Location":
        self = _new_object(cls)
        _set_line(self, line)
        _set_column(self, column)
        _set_filename(self, filename)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Location, (self.line, self.column, self.filename))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Location:
            return NotImplemented
        return (self.line, self.column, self.filename) == (other.line, other.column, other.filename)

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))

    def __repr__(self) -> str:
        return f"Location(line={self.line!r}, column={self.column!r}, filename={self.filename!r})"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    @staticmethod
    def unknown() -> "Location":
        return Location(0, 0, "<unknown>")


_new_object = object.__new__
_set_line = Location.line.__set__
_set_column = Location.column.__set__
_set_filename = Location.filename.__set__


class LineIndex:
    """The :class:`Location` of any offset into one source text.

    The lexer records each token's offset only, and the parser asks for a
    location when it builds an AST node, so a token the parser drops
    (punctuation, keywords) never gets one.  A column is the offset from
    the start of its line plus one (a tab counts as one column).
    """

    __slots__ = ("filename", "_line_starts")

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.filename = filename
        starts = [0]
        newline = source.find("\n")
        while newline >= 0:
            starts.append(newline + 1)
            newline = source.find("\n", newline + 1)
        self._line_starts = starts

    def location(self, offset: int) -> Location:
        line = bisect_right(self._line_starts, offset)
        return Location(line, offset - self._line_starts[line - 1] + 1, self.filename)


class FrontendError(Exception):
    """Base class for lexing/parsing errors; carries a location."""

    def __init__(self, message: str, location: Location) -> None:
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(FrontendError):
    pass


class ParseError(FrontendError):
    pass
