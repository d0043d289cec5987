"""Pearson redundancy removal (paper Algorithm 4, Table II).

As printed, Algorithm 4 keeps one member of every highly-correlated pair
and never touches uncorrelated features; the evident intent (and what we
implement) is: order candidates by IV descending and greedily keep a
feature iff |Pearson| ≤ θ against every feature already kept — i.e. the
lower-IV member of each correlated pair is dropped (DESIGN.md §2).

The Pearson matrix has one kernel on both engines,
:class:`repro.core.scan.ColumnStats`, finished in ``numpy.corrcoef``'s
order (co-moments times 1/(n − 1), divided by the row, then the column
standard deviations, clipped to [−1, 1]); a constant column, or one
holding NaN or ±inf, correlates 0 with every other. The Spark engine
slices it from the IV step's fused scan, at no Spark job of its own.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "PEARSON_BANDS",
    "DEFAULT_THETA",
    "remove_redundant",
]

#: Table II of the paper: correlation-strength rule of thumb.
PEARSON_BANDS: tuple[tuple[float, float, str], ...] = (
    (0.0, 0.2, "very weak or none"),
    (0.2, 0.4, "weak"),
    (0.4, 0.6, "moderate"),
    (0.6, 0.8, "strong"),
    (0.8, 1.0 + 1e-12, "extremely strong"),
)

DEFAULT_THETA = 0.8  # paper §IV-C2


def correlation_band(r: float) -> str:
    """Strength band of |r| per Table II."""
    r = abs(r)
    for lo, hi, name in PEARSON_BANDS:
        if lo <= r < hi:
            return name
    return PEARSON_BANDS[-1][2]


def remove_redundant(
    columns: list[str],
    iv: dict[str, float],
    corr: np.ndarray,
    theta: float = DEFAULT_THETA,
) -> list[str]:
    """Greedy IV-descending selection dropping |r| > θ against kept set.

    ``corr`` is the Pearson matrix in the order of ``columns``. Returns the
    kept subset in IV-descending order (ties broken by column name for
    determinism).
    """
    order = sorted(range(len(columns)), key=lambda i: (-iv.get(columns[i], 0.0), columns[i]))
    kept_idx: list[int] = []
    for i in order:
        if all(abs(corr[i, j]) <= theta for j in kept_idx):
            kept_idx.append(i)
    return [columns[i] for i in kept_idx]
