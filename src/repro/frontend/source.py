"""Source locations and diagnostics for the MiniCC frontend."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Location", "FrontendError", "LexError", "ParseError"]


@dataclass(frozen=True, slots=True)
class Location:
    """A position in a source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    @staticmethod
    def unknown() -> "Location":
        return Location(0, 0, "<unknown>")


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
