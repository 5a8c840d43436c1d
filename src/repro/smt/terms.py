"""Term language for the constraint formulas Canary generates.

The paper's constraints (guards ``Phi_guard``, load-store orders ``Phi_ls``,
program orders ``Phi_po``) are built from three kinds of atoms:

* opaque boolean variables (branch conditions whose value is unknown
  statically, e.g. the ``theta`` conditions of Fig. 2),
* integer comparisons between program values and constants, and
* strict-order atoms ``O_a < O_b`` between statement order variables.

All of these fit inside quantifier-free integer difference logic plus
propositional structure, which is what :mod:`repro.smt.solver` decides.

Terms are immutable and hash-consed so that structurally equal terms are
reference-equal; this makes guard deduplication during VFG construction
cheap and makes ``theta`` and ``Not(theta)`` trivially recognizable as
complements by the lightweight simplifier.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Iterable, Optional, Tuple

__all__ = [
    "Term",
    "BoolTerm",
    "IntTerm",
    "BoolConst",
    "BoolVar",
    "Not",
    "And",
    "Or",
    "IntConst",
    "IntVar",
    "Add",
    "Sub",
    "Le",
    "Lt",
    "Eq",
    "TRUE",
    "FALSE",
    "true",
    "false",
    "bool_var",
    "int_var",
    "int_const",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "lt",
    "le",
    "gt",
    "ge",
    "eq",
    "ne",
    "is_literal",
    "literal_atom",
    "conjuncts",
]

#: the hash-cons table, key -> weak reference to the term.  A term leaves
#: it once nothing else holds it: the reference's callback drops the
#: entry, unless a live term has taken its place.  (A plain dict of refs
#: is a WeakValueDictionary whose lookups stay in C.)
_interned: dict = {}
_intern_lock = threading.Lock()


def _intern(cls, *args):
    """Hash-cons constructor: one object per structurally-distinct term."""
    key = (cls, args)
    ref = _interned.get(key)
    if ref is not None:
        found = ref()
        if found is not None:
            return found
    found = object.__new__(cls)
    found._args = args
    found._hash = hash(key)
    new = weakref.ref(found, lambda _ref, key=key: _remove_dead_weakref(_interned, key))
    # When two threads build the same term at once, both must get the
    # object that was stored first.
    with _intern_lock:
        ref = _interned.setdefault(key, new)
        if ref is not new:
            stored = ref()
            if stored is not None:
                return stored
            _interned[key] = new  # the entry's term died; its callback is due
    return found


class Term:
    """Base class of all terms.  Instances are immutable and interned."""

    __slots__ = ("_args", "_hash", "__weakref__")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __reduce__(self):
        # ``__eq__`` is identity, so a term that is not the interned
        # object compares unequal to its structural twin.  The default
        # reduction would make exactly such a copy; rebuilding through
        # ``_intern`` instead makes ``pickle.loads(pickle.dumps(t))``,
        # ``copy.copy(t)`` and ``copy.deepcopy(t)`` return ``t`` itself
        # (or, in a fresh process, the term of that process's table).
        return (_intern, (type(self),) + self._args)

    @property
    def args(self) -> tuple:
        return self._args

    def __repr__(self):
        return self.pretty()

    def pretty(self) -> str:
        raise NotImplementedError


class BoolTerm(Term):
    """A term of boolean sort."""

    __slots__ = ()

    def __and__(self, other: "BoolTerm") -> "BoolTerm":
        return and_(self, other)

    def __or__(self, other: "BoolTerm") -> "BoolTerm":
        return or_(self, other)

    def __invert__(self) -> "BoolTerm":
        return not_(self)


class IntTerm(Term):
    """A term of integer sort."""

    __slots__ = ()

    def __add__(self, other) -> "IntTerm":
        return _mk_add(self, _coerce_int(other))

    def __sub__(self, other) -> "IntTerm":
        return _mk_sub(self, _coerce_int(other))

    def __lt__(self, other) -> BoolTerm:
        return lt(self, other)

    def __le__(self, other) -> BoolTerm:
        return le(self, other)

    def __gt__(self, other) -> BoolTerm:
        return gt(self, other)

    def __ge__(self, other) -> BoolTerm:
        return ge(self, other)


class BoolConst(BoolTerm):
    __slots__ = ()

    @property
    def value(self) -> bool:
        return self._args[0]

    def pretty(self):
        return "true" if self.value else "false"


class BoolVar(BoolTerm):
    __slots__ = ()

    @property
    def name(self) -> str:
        return self._args[0]

    def pretty(self):
        return self.name


class Not(BoolTerm):
    __slots__ = ()

    @property
    def arg(self) -> BoolTerm:
        return self._args[0]

    def pretty(self):
        return f"(not {self.arg.pretty()})"


class And(BoolTerm):
    __slots__ = ()

    def pretty(self):
        return "(and " + " ".join(a.pretty() for a in self.args) + ")"


class Or(BoolTerm):
    __slots__ = ()

    def pretty(self):
        return "(or " + " ".join(a.pretty() for a in self.args) + ")"


class IntConst(IntTerm):
    __slots__ = ()

    @property
    def value(self) -> int:
        return self._args[0]

    def pretty(self):
        return str(self.value)


class IntVar(IntTerm):
    __slots__ = ()

    @property
    def name(self) -> str:
        return self._args[0]

    def pretty(self):
        return self.name


class Add(IntTerm):
    __slots__ = ()

    @property
    def lhs(self) -> IntTerm:
        return self._args[0]

    @property
    def rhs(self) -> IntTerm:
        return self._args[1]

    def pretty(self):
        return f"(+ {self.lhs.pretty()} {self.rhs.pretty()})"


class Sub(IntTerm):
    __slots__ = ()

    @property
    def lhs(self) -> IntTerm:
        return self._args[0]

    @property
    def rhs(self) -> IntTerm:
        return self._args[1]

    def pretty(self):
        return f"(- {self.lhs.pretty()} {self.rhs.pretty()})"


class Le(BoolTerm):
    """``lhs <= rhs`` over integer terms."""

    __slots__ = ()

    @property
    def lhs(self) -> IntTerm:
        return self._args[0]

    @property
    def rhs(self) -> IntTerm:
        return self._args[1]

    def pretty(self):
        return f"(<= {self.lhs.pretty()} {self.rhs.pretty()})"


class Lt(BoolTerm):
    """``lhs < rhs`` over integer terms."""

    __slots__ = ()

    @property
    def lhs(self) -> IntTerm:
        return self._args[0]

    @property
    def rhs(self) -> IntTerm:
        return self._args[1]

    def pretty(self):
        return f"(< {self.lhs.pretty()} {self.rhs.pretty()})"


class Eq(BoolTerm):
    """``lhs == rhs`` over integer terms."""

    __slots__ = ()

    @property
    def lhs(self) -> IntTerm:
        return self._args[0]

    @property
    def rhs(self) -> IntTerm:
        return self._args[1]

    def pretty(self):
        return f"(= {self.lhs.pretty()} {self.rhs.pretty()})"


TRUE: BoolConst = _intern(BoolConst, True)
FALSE: BoolConst = _intern(BoolConst, False)


def true() -> BoolConst:
    return TRUE


def false() -> BoolConst:
    return FALSE


def bool_var(name: str) -> BoolVar:
    return _intern(BoolVar, name)


def int_var(name: str) -> IntVar:
    return _intern(IntVar, name)


def int_const(value: int) -> IntConst:
    return _intern(IntConst, int(value))


def _coerce_int(x) -> IntTerm:
    if isinstance(x, IntTerm):
        return x
    if isinstance(x, int):
        return int_const(x)
    raise TypeError(f"expected an integer term, got {x!r}")


def _coerce_bool(x) -> BoolTerm:
    if isinstance(x, BoolTerm):
        return x
    if isinstance(x, bool):
        return TRUE if x else FALSE
    raise TypeError(f"expected a boolean term, got {x!r}")


def not_(a) -> BoolTerm:
    a = _coerce_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if isinstance(a, Not):
        return a.arg
    return _intern(Not, a)


def and_(*parts) -> BoolTerm:
    """N-ary conjunction with flattening, deduplication and constant folding."""
    rest = [p for p in parts if p is not TRUE]
    if not rest:
        return TRUE
    if len(rest) == 1 and isinstance(rest[0], BoolTerm):
        # Conjoining with TRUE (the usual guard on straight-line code):
        # every term built here is already flat and contradiction-free.
        return rest[0]
    flat: list = []
    seen = set()
    for p in parts:
        p = _coerce_bool(p)
        stack = [p]
        while stack:
            t = stack.pop()
            if t is TRUE:
                continue
            if t is FALSE:
                return FALSE
            if isinstance(t, And):
                stack.extend(reversed(t.args))
                continue
            if t not in seen:
                seen.add(t)
                flat.append(t)
    for t in flat:
        if isinstance(t, Not) and t.arg in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _intern(And, *flat)


def or_(*parts) -> BoolTerm:
    """N-ary disjunction with flattening, deduplication and constant folding."""
    flat: list = []
    seen = set()
    for p in parts:
        p = _coerce_bool(p)
        stack = [p]
        while stack:
            t = stack.pop()
            if t is FALSE:
                continue
            if t is TRUE:
                return TRUE
            if isinstance(t, Or):
                stack.extend(reversed(t.args))
                continue
            if t not in seen:
                seen.add(t)
                flat.append(t)
    for t in flat:
        if isinstance(t, Not) and t.arg in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _intern(Or, *flat)


def implies(a, b) -> BoolTerm:
    return or_(not_(a), b)


def iff(a, b) -> BoolTerm:
    a, b = _coerce_bool(a), _coerce_bool(b)
    if a is b:
        return TRUE
    return and_(implies(a, b), implies(b, a))


def _mk_add(a: IntTerm, b: IntTerm) -> IntTerm:
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return int_const(a.value + b.value)
    if isinstance(b, IntConst) and b.value == 0:
        return a
    if isinstance(a, IntConst) and a.value == 0:
        return b
    return _intern(Add, a, b)


def _mk_sub(a: IntTerm, b: IntTerm) -> IntTerm:
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return int_const(a.value - b.value)
    if isinstance(b, IntConst) and b.value == 0:
        return a
    if a is b:
        return int_const(0)
    return _intern(Sub, a, b)


def le(a, b) -> BoolTerm:
    a, b = _coerce_int(a), _coerce_int(b)
    folded = _fold_cmp(a, b, strict=False)
    if folded is not None:
        return folded
    return _intern(Le, a, b)


def lt(a, b) -> BoolTerm:
    a, b = _coerce_int(a), _coerce_int(b)
    folded = _fold_cmp(a, b, strict=True)
    if folded is not None:
        return folded
    return _intern(Lt, a, b)


def ge(a, b) -> BoolTerm:
    return le(b, a)


def gt(a, b) -> BoolTerm:
    return lt(b, a)


def eq(a, b) -> BoolTerm:
    a, b = _coerce_int(a), _coerce_int(b)
    if a is b:
        return TRUE
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return TRUE if a.value == b.value else FALSE
    return _intern(Eq, a, b)


def ne(a, b) -> BoolTerm:
    return not_(eq(a, b))


def _fold_cmp(a: IntTerm, b: IntTerm, strict: bool) -> Optional[BoolTerm]:
    if a is b:
        return FALSE if strict else TRUE
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        holds = a.value < b.value if strict else a.value <= b.value
        return TRUE if holds else FALSE
    return None


def is_literal(t: BoolTerm) -> bool:
    """A literal is an atom or the negation of an atom."""
    if isinstance(t, Not):
        t = t.arg
    return isinstance(t, (BoolVar, Le, Lt, Eq, BoolConst))


def literal_atom(t: BoolTerm) -> Tuple[BoolTerm, bool]:
    """Split a literal into ``(atom, polarity)``."""
    if isinstance(t, Not):
        return t.arg, False
    return t, True


def conjuncts(t: BoolTerm) -> Iterable[BoolTerm]:
    """The top-level conjuncts of a term (itself, if not a conjunction)."""
    if isinstance(t, And):
        return t.args
    return (t,)
