"""Tseitin transformation from the term DSL to CNF.

Atoms (boolean variables and integer comparisons) map to positive SAT
variables; every internal And/Or gate gets an auxiliary variable with the
standard defining clauses.  The encoder keeps the atom <-> SAT-variable
correspondence so the DPLL(T) loop in :mod:`repro.smt.solver` can hand the
comparison atoms to the difference-logic theory.

No emitted clause holds a duplicate or a complementary literal: every
atom and gate has exactly one variable, and ``and_``/``or_`` dedupe
their arguments and fold contradictions.  The solver relies on this to
load the clauses without checking them
(:meth:`~repro.smt.sat.SatSolver.add_fresh_clauses`).
"""

from __future__ import annotations

from typing import Dict, List

from .terms import And, BoolConst, BoolTerm, BoolVar, Eq, FALSE, Le, Lt, Not, Or, TRUE

__all__ = ["CnfEncoder"]


class CnfEncoder:
    """Encodes boolean terms into CNF over integer SAT literals.

    SAT variables are positive integers; a literal is ``+v`` or ``-v``.
    """

    def __init__(self) -> None:
        self.clauses: List[List[int]] = []
        self.atom_of_var: Dict[int, BoolTerm] = {}
        self._var_of_atom: Dict[BoolTerm, int] = {}
        self._gate_cache: Dict[BoolTerm, int] = {}
        self._next_var = 1
        #: True once an ``Eq`` atom has been encoded
        self.saw_eq = False

    @property
    def num_vars(self) -> int:
        return self._next_var - 1

    def _fresh_var(self) -> int:
        v = self._next_var
        self._next_var += 1
        return v

    def var_for_atom(self, atom: BoolTerm) -> int:
        v = self._var_of_atom.get(atom)
        if v is None:
            v = self._fresh_var()
            self._var_of_atom[atom] = v
            self.atom_of_var[v] = atom
        return v

    def add_assertion(self, term: BoolTerm) -> None:
        """Assert ``term`` (top-level conjunct) into the clause database."""
        if term is TRUE:
            return
        if term is FALSE:
            self.clauses.append([])
            return
        if isinstance(term, And):
            for part in term.args:
                self.add_assertion(part)
            return
        self.clauses.append([self._encode(term)])

    def _encode(self, term: BoolTerm) -> int:
        """Return a literal equisatisfiably representing ``term``."""
        if isinstance(term, (BoolVar, Le, Lt)):
            return self.var_for_atom(term)
        if isinstance(term, Eq):
            self.saw_eq = True
            return self.var_for_atom(term)
        if isinstance(term, BoolConst):
            # Encode constants via a dedicated always-true variable.
            v = self._gate_cache.get(TRUE)
            if v is None:
                v = self._fresh_var()
                self._gate_cache[TRUE] = v
                self.clauses.append([v])
            return v if term.value else -v
        if isinstance(term, Not):
            return -self._encode(term.arg)
        cached = self._gate_cache.get(term)
        if cached is not None:
            return cached
        if isinstance(term, And):
            lits = [self._encode(a) for a in term.args]
            g = self._fresh_var()
            for lit in lits:
                self.clauses.append([-g, lit])
            self.clauses.append([g] + [-lit for lit in lits])
        elif isinstance(term, Or):
            lits = [self._encode(a) for a in term.args]
            g = self._fresh_var()
            for lit in lits:
                self.clauses.append([g, -lit])
            self.clauses.append([-g] + lits)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot encode term of type {type(term).__name__}")
        self._gate_cache[term] = g
        return g

    def theory_atoms(self) -> Dict[int, BoolTerm]:
        """SAT variables whose atoms belong to the arithmetic theory."""
        return {
            v: a for v, a in self.atom_of_var.items() if isinstance(a, (Le, Lt, Eq))
        }
