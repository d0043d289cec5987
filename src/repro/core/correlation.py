"""Pearson redundancy removal (paper Algorithm 4, Table II).

As printed, Algorithm 4 keeps one member of every highly-correlated pair
and never touches uncorrelated features; the evident intent (and what we
implement) is: order candidates by IV descending and greedily keep a
feature iff |Pearson| ≤ θ against every feature already kept — i.e. the
lower-IV member of each correlated pair is dropped (DESIGN.md §2).

:func:`pearson_matrix` is the numpy path. The Spark engine slices its
matrix from the centred co-moments of :class:`repro.core.scan.ColumnStats`,
the fused IV+Pearson block kernel whose per-partition partials the IV step
has already merged, so the Pearson step costs no Spark job of its own when
it follows the IV step.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = [
    "PEARSON_BANDS",
    "DEFAULT_THETA",
    "pearson_matrix",
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


def pearson_matrix(X: pd.DataFrame | np.ndarray) -> np.ndarray:
    """Full Pearson matrix; zero-variance columns correlate 0 with all."""
    mat = X.to_numpy(dtype=np.float64) if isinstance(X, pd.DataFrame) else np.asarray(X, dtype=np.float64)
    sd = mat.std(axis=0)
    ok = sd > 0
    out = np.zeros((mat.shape[1], mat.shape[1]))
    if ok.sum() >= 1:
        sub = np.corrcoef(mat[:, ok], rowvar=False)
        sub = np.atleast_2d(sub)
        idx = np.where(ok)[0]
        out[np.ix_(idx, idx)] = sub
    np.fill_diagonal(out, 1.0)
    return np.nan_to_num(out, nan=0.0)


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
