"""SMT solving substrate.

The paper implements Canary on top of Z3; this reproduction ships its own
lazy DPLL(T) solver, sized exactly for the constraint language Canary
emits (propositional guards + integer difference logic for execution
orders).  Public surface:

* :mod:`repro.smt.terms` — the term DSL used for guards everywhere else,
* :class:`repro.smt.solver.Solver` — ``add``/``check``/``model``,
* :func:`repro.smt.simplify.quick_unsat` — the paper's semi-decision filter.
"""

from .terms import (
    TRUE,
    FALSE,
    BoolTerm,
    IntTerm,
    and_,
    bool_var,
    conjuncts,
    eq,
    false,
    ge,
    gt,
    iff,
    implies,
    int_const,
    int_var,
    le,
    lt,
    ne,
    not_,
    or_,
    true,
)
from .simplify import GuardPrefix, quick_unsat
from .solver import SAT, UNKNOWN, UNSAT, Model, Solver, is_satisfiable, solve_formula

__all__ = [
    "TRUE",
    "FALSE",
    "BoolTerm",
    "IntTerm",
    "and_",
    "bool_var",
    "conjuncts",
    "eq",
    "false",
    "ge",
    "gt",
    "iff",
    "implies",
    "int_const",
    "int_var",
    "le",
    "lt",
    "ne",
    "not_",
    "or_",
    "true",
    "GuardPrefix",
    "quick_unsat",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Model",
    "Solver",
    "is_satisfiable",
    "solve_formula",
]
