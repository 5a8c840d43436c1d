"""Cube-and-conquer constraint splitting (paper §5.2, third optimization).

For complex realizability queries Canary splits the formula on a few
high-impact atoms into *cubes* (partial assignments) and solves the cubes
independently — the paper cites Heule et al.'s cube-and-conquer strategy.
Cubes are embarrassingly parallel; here they run on a thread pool.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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
    max_workers: int = 4,
    solver_factory: Optional[Callable[[], Solver]] = None,
    max_conflicts: Optional[int] = None,
    timeout: Optional[float] = None,
    recorder=None,
) -> Tuple[Result, Optional[Model], str]:
    """Decide ``term`` by splitting into cubes solved in parallel.

    SAT if any cube is SAT; UNSAT only if *every* cube is UNSAT; UNKNOWN
    if any cube exhausted its budget and no cube was SAT — an undecided
    cube could hide a model, so UNKNOWN is never collapsed into UNSAT.
    On SAT the *winning cube's* model comes back too — it satisfies the
    original formula (the cube only fixes a few atoms), so realizability
    checking can extract a witness interleaving from it exactly as in
    the monolithic path.

    Returns ``(verdict, model, unknown_reason)``: on UNKNOWN the third
    element carries the first undecided cube's reason (``'conflicts'``,
    ``'deadline'``, ...), empty otherwise.

    ``max_conflicts`` is the per-cube conflict budget and ``timeout``
    the per-cube wall budget in seconds; both are ignored when an
    explicit ``solver_factory`` is supplied (the factory then owns the
    budgets).

    ``recorder`` is an optional :class:`~repro.obs.tracer.SpanRecorder`:
    each decided cube is recorded as a ``solver.cube`` span with the
    helper thread's timing (recorded from the coordinating thread —
    cube workers never touch the recorder, which is single-threaded).
    """
    if solver_factory is None:
        solver_factory = lambda: Solver(max_conflicts=max_conflicts, timeout=timeout)
    if split_atoms is None:
        split_atoms = pick_split_atoms(term)
    if not split_atoms:
        solver = solver_factory()
        solver.add(term)
        return solver.check(), solver.model(), solver.unknown_reason or ""

    def solve_cube(indexed) -> Tuple[int, Result, Optional[Model], str, float, float]:
        index, cube = indexed
        t0 = time.time()
        solver = solver_factory()
        solver.add(term, *cube)
        result = solver.check()
        return index, result, solver.model(), solver.unknown_reason or "", t0, time.time()

    results: List[Result] = []
    unknown_reason = ""
    cubes = list(_cubes(list(split_atoms)))
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for index, result, model, reason, t0, t1 in pool.map(
            solve_cube, enumerate(cubes)
        ):
            if recorder is not None:
                recorder.record_span(
                    "solver.cube", t0, t1, index=index, verdict=result
                )
            if result is SAT:
                return SAT, model, ""
            if result is UNKNOWN and not unknown_reason:
                unknown_reason = reason or "conflicts"
            results.append(result)
    if any(r is UNKNOWN for r in results):
        return UNKNOWN, None, unknown_reason
    return UNSAT, None, ""


def cube_solve(
    term: BoolTerm,
    split_atoms: Optional[Sequence[BoolTerm]] = None,
    max_workers: int = 4,
    solver_factory: Optional[Callable[[], Solver]] = None,
    max_conflicts: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Result:
    """Verdict-only wrapper over :func:`cube_solve_model`."""
    verdict, _model, _reason = cube_solve_model(
        term,
        split_atoms=split_atoms,
        max_workers=max_workers,
        solver_factory=solver_factory,
        max_conflicts=max_conflicts,
        timeout=timeout,
    )
    return verdict
