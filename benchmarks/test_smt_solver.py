"""Microbenchmarks for the SMT substrate (supporting §5.2 claims).

Not a paper table, but the constraint-solving optimizations (semi-
decision filtering, small blocking clauses from negative cycles) are
explicit contributions of §5.2 — these benches keep their costs visible.
§5.2's cube-and-conquer is not kept (see DESIGN.md).
"""

from __future__ import annotations

import pytest

from repro.smt import (
    Solver,
    and_,
    bool_var,
    implies,
    int_var,
    lt,
    not_,
    or_,
    quick_unsat,
)


def _order_chain_formula(n: int, satisfiable: bool):
    """O_0 < O_1 < ... < O_n, plus guard-selected disjunctions; optionally
    closed into a cycle (UNSAT)."""
    parts = [lt(int_var(f"O{i}"), int_var(f"O{i+1}")) for i in range(n)]
    for i in range(0, n, 3):
        g = bool_var(f"g{i}")
        parts.append(
            implies(g, or_(lt(int_var(f"O{i}"), int_var("Ox")), lt(int_var("Ox"), int_var(f"O{i+1}"))))
        )
    if not satisfiable:
        parts.append(lt(int_var(f"O{n}"), int_var("O0")))
    return and_(*parts)


@pytest.mark.parametrize("n", [10, 40, 80])
def test_sat_order_chain(benchmark, n):
    formula = _order_chain_formula(n, satisfiable=True)

    def solve():
        s = Solver()
        s.add(formula)
        return s.check()

    assert benchmark(solve) == "sat"


@pytest.mark.parametrize("n", [10, 40, 80])
def test_unsat_order_cycle(benchmark, n):
    formula = _order_chain_formula(n, satisfiable=False)

    def solve():
        s = Solver()
        s.add(formula)
        return s.check()

    assert benchmark(solve) == "unsat"


def test_quick_unsat_filter(benchmark):
    """The semi-decision filter must be orders of magnitude cheaper than
    the full solver on conjunction-only guards."""
    theta = bool_var("theta")
    parts = [theta, not_(theta)] + [
        lt(int_var(f"a{i}"), int_var(f"a{i+1}")) for i in range(50)
    ]
    formula = and_(*parts)
    assert benchmark(lambda: quick_unsat(formula)) is True
