"""Information Value filtering (paper Algorithm 3, Table I).

IV of a feature over β equal-frequency bins::

    IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln( (n_p^i/n_p) / (n_n^i/n_n) )

Note: the paper's Eq. (6) as printed omits the logarithm (it multiplies the
difference by the raw ratio). That form is not the industry-standard
Information Value that Table I's thumb-rule bands describe, is unbounded
and sign-asymmetric, so we implement the canonical WOE-weighted form above
(documented substitution, DESIGN.md §2). Empty-class bins are Laplace
smoothed with 0.5 so WOE stays finite.

This module holds the numpy path (exact quantile edges). It sorts each
column once, and its positive rows once: the edges are quantiles of the
sorted column's finite values, read straight from it
(:func:`repro.gbdt.binning.sorted_quantiles`, equal to ``numpy.quantile``),
and each bin's total and positive counts are differences of
``searchsorted`` positions of the edges in the two sorted arrays, so no row
is binned one by one. The counts equal a
``bincount`` of :func:`equal_freq_bin`'s codes. NaN and ±inf take no part
in the edges: -inf falls in the first bin, +inf and NaN in the last. The
distributed Spark engine takes its edges from ``approxQuantile`` (which
skips nulls and NaN) and its per-bin counts from the fused IV+Pearson scan
of :mod:`repro.core.scan`, then finishes with the same
:func:`iv_from_counts`; the two agree up to the quantile approximation.
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pandas as pd

from ..gbdt.binning import finite_slice, sorted_quantiles

__all__ = ["IV_BANDS", "iv_from_counts", "iv_scores", "equal_freq_bin", "sorted_bin_counts"]

#: Table I of the paper: predictive-power rule of thumb.
IV_BANDS: tuple[tuple[float, float, str], ...] = (
    (0.0, 0.02, "useless"),
    (0.02, 0.1, "weak"),
    (0.1, 0.3, "medium"),
    (0.3, 0.5, "strong"),
    (0.5, float("inf"), "extremely strong"),
)

DEFAULT_ALPHA = 0.1  # paper §IV-C1: keep medium-or-better predictors
DEFAULT_BETA = 10  # bins


def iv_band(iv: float) -> str:
    """Predictive-power band of an IV value per Table I."""
    for lo, hi, name in IV_BANDS:
        if lo <= iv < hi:
            return name
    return IV_BANDS[-1][2]


def iv_from_counts(pos: np.ndarray, neg: np.ndarray) -> float:
    """IV from per-bin positive/negative counts (0.5 Laplace smoothing)."""
    pos = np.asarray(pos, dtype=np.float64) + 0.5
    neg = np.asarray(neg, dtype=np.float64) + 0.5
    p = pos / pos.sum()
    q = neg / neg.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def equal_freq_bin(x: np.ndarray, beta: int = DEFAULT_BETA) -> np.ndarray:
    """Equal-frequency bin codes in [0, beta) via rank quantiles.

    Ties collapse bins (a constant column lands entirely in one bin, so its
    IV is 0 — correctly flagged useless).
    """
    x = np.asarray(x, dtype=np.float64)
    return np.searchsorted(_edges(np.sort(x), beta), x, side="left")


def _edges(xs: np.ndarray, beta: int) -> np.ndarray:
    """Distinct equal-frequency edges of a sorted column's finite values."""
    finite = finite_slice(xs)
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    return np.unique(sorted_quantiles(finite, np.linspace(0, 1, beta + 1)[1:-1]))


def iv_scores(
    X: Mapping[str, np.ndarray] | pd.DataFrame | np.ndarray,
    y: np.ndarray,
    beta: int = DEFAULT_BETA,
    columns: list[str] | None = None,
) -> dict[str, float]:
    """IV per feature (numpy engine). Returns {column: IV}.

    ``X`` is a mapping of column name to values (a dict of arrays or a
    pandas frame), or a matrix whose columns are named ``f0, f1, ...``.
    """
    if isinstance(X, (Mapping, pd.DataFrame)):
        columns = columns or list(X)
        # one column at a time: all candidates at once copy the whole frame
        values = (np.asarray(X[c], dtype=np.float64) for c in columns)
    else:
        mat = np.asarray(X, dtype=np.float64)
        columns = columns or [f"f{i}" for i in range(mat.shape[1])]
        values = mat.T
    y = np.asarray(y).astype(bool)
    out: dict[str, float] = {}
    for c, x in zip(columns, values):
        pos, total = sorted_bin_counts(np.sort(x), np.sort(x[y]), beta)
        out[c] = iv_from_counts(pos, total - pos)
    return out


def sorted_bin_counts(
    xs: np.ndarray, xs_pos: np.ndarray, beta: int = DEFAULT_BETA
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin (positive, total) counts of :func:`equal_freq_bin`'s codes.

    ``xs`` is a column sorted ascending and ``xs_pos`` its positive rows
    sorted the same way (NaNs last, as ``np.sort`` leaves them). The bins
    run from 0 to the bin of the largest value, empty ones included, as a
    ``bincount`` of the codes would. Bin ``b`` ends after the values that
    ``searchsorted(edges, ·, 'left')`` puts at or below ``b``: those that
    are not above ``edges[b]``.
    """
    edges = _edges(xs, beta)
    inner = edges[: np.searchsorted(edges, xs[-1], side="left")]
    total = np.diff(np.searchsorted(xs, inner, side="right"), prepend=0, append=len(xs))
    pos = np.diff(np.searchsorted(xs_pos, inner, side="right"), prepend=0, append=len(xs_pos))
    return pos, total
