"""Cube-and-conquer constraint splitting (paper §5.2, third optimization).

For complex realizability queries Canary splits the formula on a few
high-impact atoms into *cubes* (partial assignments) and solves the cubes
independently — the paper cites Heule et al.'s cube-and-conquer strategy.
The cubes are solved one after another, in cube order: they are
CPU-bound Python, which threads cannot run in parallel under the GIL.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .solver import SAT, UNKNOWN, UNSAT, Model, Result, Solver
from .terms import And, BoolTerm, BoolVar, Eq, Le, Lt, Not, Or, and_, not_

__all__ = ["pick_split_atoms", "cube_solve", "cube_solve_model"]


def _collect_atoms(term: BoolTerm, counts: dict) -> None:
    """Count atom *occurrences*; compound subterms are visited once (they
    are interned, so a repeated subterm contributes its atoms once — but
    an atom referenced from several distinct parents counts each time)."""
    stack = [term]
    seen_compound = set()
    while stack:
        t = stack.pop()
        if isinstance(t, (BoolVar, Le, Lt, Eq)):
            counts[t] = counts.get(t, 0) + 1
            continue
        if t in seen_compound:
            continue
        seen_compound.add(t)
        if isinstance(t, Not):
            stack.append(t.arg)
        elif isinstance(t, (And, Or)):
            stack.extend(t.args)


def pick_split_atoms(term: BoolTerm, k: int = 2) -> List[BoolTerm]:
    """Choose up to ``k`` atoms to split on: the most frequently occurring
    atoms, which prune the most when fixed (a simple lookahead proxy)."""
    counts: dict = {}
    _collect_atoms(term, counts)
    ranked = sorted(counts, key=lambda a: -counts[a])
    return ranked[:k]


def _cubes(atoms: Sequence[BoolTerm]) -> Iterable[List[BoolTerm]]:
    if not atoms:
        yield []
        return
    for rest in _cubes(atoms[1:]):
        yield [atoms[0]] + rest
        yield [not_(atoms[0])] + rest


def cube_solve_model(
    term: BoolTerm,
    split_atoms: Optional[Sequence[BoolTerm]] = None,
    solver_factory: Optional[Callable[[], Solver]] = None,
    max_conflicts: Optional[int] = None,
    timeout: Optional[float] = None,
    recorder=None,
) -> Tuple[Result, Optional[Model], str]:
    """Decide ``term`` by splitting it into cubes, solved in cube order.

    SAT as soon as a cube is SAT; UNSAT only if *every* cube is UNSAT;
    UNKNOWN if any cube exhausted its budget and no cube was SAT — an
    undecided cube could hide a model, so UNKNOWN is never collapsed
    into UNSAT.
    On SAT the *winning cube's* model comes back too — it satisfies the
    original formula (the cube only fixes a few atoms), so realizability
    checking can extract a witness interleaving from it exactly as in
    the monolithic path.

    Returns ``(verdict, model, unknown_reason)``: on UNKNOWN the third
    element carries the first undecided cube's reason (``'conflicts'``,
    ``'deadline'``, ...), empty otherwise.

    ``max_conflicts`` is the per-cube conflict budget and ``timeout``
    the wall budget in seconds of the whole query, shared by the cubes
    in turn; both are ignored when an explicit ``solver_factory`` is
    supplied (the factory then owns the budgets).

    ``recorder`` is an optional :class:`~repro.obs.tracer.SpanRecorder`:
    each decided cube is recorded as a ``solver.cube`` span.
    """
    if solver_factory is None:
        deadline = None if timeout is None else time.monotonic() + timeout

        def solver_factory() -> Solver:
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            return Solver(max_conflicts=max_conflicts, timeout=left)

    if split_atoms is None:
        split_atoms = pick_split_atoms(term)
    if not split_atoms:
        solver = solver_factory()
        solver.add(term)
        return solver.check(), solver.model(), solver.unknown_reason or ""

    unknown_reason = ""
    for index, cube in enumerate(_cubes(list(split_atoms))):
        t0 = time.time()
        solver = solver_factory()
        solver.add(term, *cube)
        result = solver.check()
        if recorder is not None:
            recorder.record_span("solver.cube", t0, time.time(), index=index, verdict=result)
        if result is SAT:
            return SAT, solver.model(), ""
        if result is UNKNOWN and not unknown_reason:
            unknown_reason = solver.unknown_reason or "conflicts"
    if unknown_reason:
        return UNKNOWN, None, unknown_reason
    return UNSAT, None, ""


def cube_solve(
    term: BoolTerm,
    split_atoms: Optional[Sequence[BoolTerm]] = None,
    solver_factory: Optional[Callable[[], Solver]] = None,
    max_conflicts: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Result:
    """Verdict-only wrapper over :func:`cube_solve_model`."""
    verdict, _model, _reason = cube_solve_model(
        term,
        split_atoms=split_atoms,
        solver_factory=solver_factory,
        max_conflicts=max_conflicts,
        timeout=timeout,
    )
    return verdict
