"""Structural fingerprints of AST nodes.

The incremental pipeline decides whether a function must be re-lowered
by comparing content hashes of its (unrolled) AST.  The fingerprint is
*structural*: it covers node types, names, operators and literals but
ignores :class:`~repro.frontend.source.Location` fields, so reformatting
or edits elsewhere in the file do not invalidate a function.

The digest is the ``content_key`` the ``vfs1`` disk summary keys chain
on, so its input bytes are fixed: every part — a class name, ``[n``,
``]``, ``;`` or the ``repr`` of a leaf — is UTF-8 encoded and followed by
``\\x1f``, exactly as :func:`stable_digest` frames a list of parts.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, Optional, Tuple

from .ast_nodes import FuncDef, Program

__all__ = ["ast_fingerprint", "program_context_fingerprint", "stable_digest"]

_SEP = b"\x1f"


def stable_digest(parts: Iterable[str]) -> str:
    """A short, process-independent digest of an iterable of strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(_SEP)
    return h.hexdigest()[:16]


def _part(text: str) -> bytes:
    return text.encode("utf-8", "backslashreplace") + _SEP


_Layout = Optional[Tuple[bytes, Tuple[str, ...]]]

#: class -> (name part, non-location field names), or None for a class
#: that is not a dataclass
_LAYOUTS: Dict[type, _Layout] = {}


def _layout(cls: type) -> _Layout:
    layout = None
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls) if f.name != "location")
        layout = (_part(cls.__name__), names)
    _LAYOUTS[cls] = layout
    return layout


def _encode(obj, memo: Dict[int, bytes]) -> bytes:
    """The digest input of ``obj``.  ``memo`` maps the ``id`` of every
    dataclass node encoded so far in this call (all of them stay alive
    for the call) to its encoding, so a subtree shared across unrolled
    iterations is encoded once."""
    cls = type(obj)
    layout = _LAYOUTS[cls] if cls in _LAYOUTS else _layout(cls)
    if layout is not None:
        encoded = memo.get(id(obj))
        if encoded is None:
            name, fields = layout
            parts = [name]
            for field in fields:
                parts.append(_encode(getattr(obj, field), memo))
            parts.append(b";" + _SEP)
            encoded = memo[id(obj)] = b"".join(parts)
        return encoded
    if isinstance(obj, (list, tuple)):
        parts = [_part(f"[{len(obj)}")]
        for item in obj:
            parts.append(_encode(item, memo))
        parts.append(b"]" + _SEP)
        return b"".join(parts)
    return _part(repr(obj))


def ast_fingerprint(node) -> str:
    """Content hash of one AST subtree (typically a :class:`FuncDef`)."""
    return hashlib.sha256(_encode(node, {})).hexdigest()[:16]


def program_context_fingerprint(program: Program, unroll_depth: int) -> str:
    """Hash of everything *outside* a function that its lowering depends
    on: the ordered function list (names and arities fix both label-block
    positions and ``FunctionRef`` resolution), global and extern names,
    and the unroll depth.  A context change forces a full re-lowering.
    """
    parts = [f"unroll={unroll_depth}"]
    for i, func in enumerate(program.functions):
        parts.append(f"fn:{i}:{func.name}/{len(func.params)}")
    parts.extend(f"glob:{g.name}" for g in program.globals)
    parts.extend(f"ext:{e.name}" for e in program.externs)
    return stable_digest(parts)
