"""Least-squares linear fitting with R² (the paper's Fig. 8 analysis).

The paper fits ``time = a·KLoC + b`` and ``memory = a·KLoC + b`` over the
subjects and reports the coefficients of determination (R² ≈ 0.83 and
0.78) as evidence of near-linear scaling.  Pure-Python implementation —
no numpy needed for a 20-point fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["LinearFit", "linear_fit"]


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float

    def equation(self, xname: str = "x", yname: str = "y") -> str:
        return (
            f"{yname} = {self.slope:.4g}·{xname} + {self.intercept:.4g}"
            f"  (R² = {self.r_squared:.4f})"
        )


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares y = a·x + b with R²."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have equal length")
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate fit: all x values identical")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)
