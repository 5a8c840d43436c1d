"""Analysis configuration.

Defaults follow the paper's implementation notes (§6/§7.2): loops
unrolled twice, calling-context nesting depth six, guard pruning with the
lightweight semi-decision procedures enabled.  The ablation switches
(``prune_guards``, ``use_mhp``, ``order_constraints``) exist for the
ablation benchmarks called out in DESIGN.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional, Tuple

__all__ = ["AnalysisConfig", "CACHE_ONLY_FIELDS"]

#: fields that select *whether* results are cached, not *what* is
#: computed — they are excluded from :meth:`AnalysisConfig.cache_key` so
#: toggling them never invalidates artifacts.
CACHE_ONLY_FIELDS = frozenset({"use_cache"})

#: optional budgets that must not be negative (besides ``context_depth``
#: and the ``max_*`` bounds); 0 is legal and means "expire immediately"
_BUDGET_FIELDS = frozenset(
    {
        "solver_max_conflicts",
        "timeout_seconds",
        "pass_timeout_seconds",
        "solver_timeout_seconds",
    }
)


@dataclass(frozen=True)
class AnalysisConfig:
    #: loop unrolling depth (paper §6: "we unroll each loop twice")
    unroll_depth: int = 2
    #: calling-context nesting depth (paper §7.2: "set to six")
    context_depth: int = 6
    #: checkers to run, by name (see repro.checkers.ALL_CHECKERS)
    checkers: Tuple[str, ...] = ("use-after-free",)
    #: report only inter-thread findings (the paper's target properties)
    inter_thread_only: bool = True
    #: bound on guarded memory-content entries per object (Alg. 1 state)
    max_content_entries: int = 16
    #: bound on Alg. 2 fixed-point rounds
    max_interference_rounds: int = 20
    #: value-flow path search bounds
    max_path_depth: int = 40
    max_paths_per_source: int = 512
    max_search_visits: int = 200_000
    max_reports_per_source: int = 8
    #: ablation: apply the semi-decision guard filter during construction
    prune_guards: bool = True
    #: ablation: prune non-MHP store/load pairs before Alg. 2 (paper §6)
    use_mhp: bool = True
    #: ablation: include Φ_ls / Φ_po order constraints when checking
    order_constraints: bool = True
    #: SAT conflict budget per path query (None = unlimited)
    solver_max_conflicts: Optional[int] = 100_000
    #: wall-clock budget for one analysis run, in seconds (None =
    #: unlimited) — the paper's per-subject hard budget.  Checked
    #: cooperatively at pass boundaries and between checker sources; on
    #: expiry the run returns a partial report flagged ``timed_out``.
    timeout_seconds: Optional[float] = None
    #: *soft* per-pass budget: a pass that overruns it is not interrupted,
    #: but the overrun is recorded as a degradation warning
    pass_timeout_seconds: Optional[float] = None
    #: per-SMT-query wall deadline in seconds (None = unlimited); the
    #: CDCL loop polls it and returns UNKNOWN with the reason recorded
    solver_timeout_seconds: Optional[float] = None
    #: extension (paper future work 1): model lock/unlock mutual exclusion
    #: in the order constraints (off by default, matching the paper)
    model_locks: bool = False
    #: extension (paper future work 2): memory model for the program-order
    #: constraints — 'sc' (paper default), 'tso', or 'pso'
    memory_model: str = "sc"
    #: record solver-refuted candidates with the refutation reason
    #: (guard-contradiction vs order-violation) in the report
    collect_suppressed: bool = False
    #: answer a byte-identical re-run of one driver (or one daemon) from
    #: the in-memory run cache
    use_cache: bool = True

    def __post_init__(self) -> None:
        from ..checkers import ALL_CHECKERS

        unknown = [name for name in self.checkers if name not in ALL_CHECKERS]
        if unknown:
            # the message of checkers.resolve_checker_names, which the CLI
            # and the server use to expand aliases before they get here
            raise ValueError(f"unknown checker(s): {', '.join(unknown)}")
        if self.memory_model not in ("sc", "tso", "pso"):
            raise ValueError(
                f"memory_model must be one of sc, tso, pso, not {self.memory_model!r}"
            )
        if self.unroll_depth < 1:
            raise ValueError(f"unroll_depth must be at least 1, not {self.unroll_depth}")
        for f in fields(self):
            if (
                f.name == "context_depth"
                or f.name.startswith("max_")
                or f.name in _BUDGET_FIELDS
            ):
                value = getattr(self, f.name)
                if value is not None and value < 0:
                    raise ValueError(f"{f.name} must not be negative, not {value}")

    def cache_key(self) -> str:
        """A stable content hash over every knob that can change analysis
        results.  Two configs with equal keys are interchangeable for
        artifact-cache purposes; any analysis-relevant difference —
        solver, search, ablation or extension knobs alike — yields a
        different key.  Cache-plumbing fields are excluded.
        """
        h = hashlib.sha256()
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in CACHE_ONLY_FIELDS:
                continue
            h.update(f"{f.name}={getattr(self, f.name)!r};".encode())
        return h.hexdigest()[:16]
