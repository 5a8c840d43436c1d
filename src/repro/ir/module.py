"""IR functions and modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..smt.terms import BoolTerm
from .instructions import Instruction, ReturnInst
from .values import MemObject, SymbolicConstant, Value, Variable

__all__ = ["IRFunction", "IRModule", "LABEL_BLOCK_STRIDE"]

#: Labels are allocated in per-function blocks of this size (see
#: :meth:`IRModule.begin_label_block`) so that editing one function
#: cannot shift the labels — and hence the bug keys — of any other.
LABEL_BLOCK_STRIDE = 1 << 20


@dataclass(eq=False)
class IRFunction:
    """A lowered function: parameters plus a guarded straight-line body.

    ``body`` is ordered by (bounded) control flow; each instruction's
    ``guard`` is its path condition relative to function entry.
    ``returns`` lists the possible return values with the guard under
    which each is returned.
    """

    name: str
    params: List[Variable] = field(default_factory=list)
    body: List[Instruction] = field(default_factory=list)
    returns: List[Tuple[Value, BoolTerm]] = field(default_factory=list)

    def instructions(self) -> Iterator[Instruction]:
        return iter(self.body)

    def pretty(self) -> str:
        lines = [f"func {self.name}({', '.join(repr(p) for p in self.params)}):"]
        for inst in self.body:
            guard = inst.guard.pretty()
            guard_note = f"  [{guard}]" if guard != "true" else ""
            lines.append(f"  ℓ{inst.label}: {inst.brief()}{guard_note}")
        for value, guard in self.returns:
            lines.append(f"  returns {value!r} under {guard.pretty()}")
        return "\n".join(lines)


@dataclass(eq=False)
class IRModule:
    """A lowered program: functions, global memory cells, extern symbols."""

    functions: Dict[str, IRFunction] = field(default_factory=dict)
    globals: Dict[str, MemObject] = field(default_factory=dict)
    externs: Dict[str, SymbolicConstant] = field(default_factory=dict)
    entry: str = "main"
    _labels: Dict[int, Instruction] = field(default_factory=dict)
    _label_func: Dict[int, str] = field(default_factory=dict)
    _next_label: int = 0
    #: exclusive upper bound of the current label block (None = unbounded,
    #: the default for hand-built modules that never open a block)
    _block_limit: Optional[int] = None

    def new_label(self) -> int:
        label = self._next_label
        self._next_label += 1
        if self._block_limit is not None and label >= self._block_limit:
            raise ValueError(
                f"label block overflow: ℓ{label} exceeds the current block"
                f" (stride {LABEL_BLOCK_STRIDE}); function too large"
            )
        return label

    def begin_label_block(self, index: int) -> None:
        """Start allocating labels at ``index * LABEL_BLOCK_STRIDE``.

        The lowering opens one block per function (in declaration order),
        which keeps every function's labels stable under edits to other
        functions: label *order* still follows declaration order, but the
        numbering of function ``i`` no longer depends on the sizes of
        functions ``0..i-1``.
        """
        start = index * LABEL_BLOCK_STRIDE
        self._next_label = start
        self._block_limit = start + LABEL_BLOCK_STRIDE

    def register(self, inst: Instruction, func_name: str) -> None:
        self._labels[inst.label] = inst
        self._label_func[inst.label] = func_name

    def instruction_at(self, label: int) -> Instruction:
        return self._labels[label]

    def function_of(self, inst: Instruction) -> str:
        return self._label_func[inst.label]

    def all_instructions(self) -> Iterator[Instruction]:
        for func in self.functions.values():
            yield from func.body

    def size(self) -> int:
        return sum(len(f.body) for f in self.functions.values())

    def pretty(self) -> str:
        parts = []
        if self.externs:
            parts.append("externs: " + ", ".join(self.externs))
        if self.globals:
            parts.append("globals: " + ", ".join(self.globals))
        parts.extend(f.pretty() for f in self.functions.values())
        return "\n\n".join(parts)
