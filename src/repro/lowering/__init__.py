"""AST-to-IR lowering: bounded unrolling + guarded partial-SSA construction."""

from .lower import (
    LoweringError,
    lower_program,
    lower_program_incremental,
)
from .unroll import DEFAULT_UNROLL_DEPTH, unroll_loops

__all__ = [
    "LoweringError",
    "lower_program",
    "lower_program_incremental",
    "DEFAULT_UNROLL_DEPTH",
    "unroll_loops",
]
