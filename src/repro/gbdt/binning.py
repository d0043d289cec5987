"""Per-feature quantile binning for histogram-based tree training.

XGBoost's approximate/hist algorithms pre-bucket every feature into at most
``n_bins`` quantile buckets and then find splits over bucket boundaries.
This module computes the bucket edges (the *candidate split values*) and
the small integer bin codes that both the local (numpy) and distributed
(Spark) GBDT backends consume.

Locally, each column is sorted once: :func:`bin_column` argsorts it, takes
its edges from the sorted values (unique values from adjacent differences,
quantiles read straight from the sorted finite slice by
:func:`sorted_quantiles`) and fills its codes from the sorted order, so no
row is binary-searched into the edges.
:func:`bin_matrix` does that for every column of a matrix; its codes equal
:meth:`BinMapper.transform`'s on the same edges, which is how the Spark
backend bins partitions against edges from ``approxQuantile``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BinMapper", "bin_column", "bin_matrix", "finite_slice", "sorted_quantiles"]


@dataclass(frozen=True)
class BinMapper:
    """Immutable per-feature quantile bin edges.

    ``edges[f]`` is a strictly increasing 1-D array of candidate split
    thresholds for feature ``f``. A value ``v`` maps to bin
    ``searchsorted(edges[f], v, side='left')`` — i.e. bin ``b`` holds
    values in ``(edges[b-1], edges[b]]`` with open ends — so there are
    ``len(edges[f]) + 1`` bins and a split "``<= edges[f][b]``" separates
    bins ``0..b`` from ``b+1..``.
    """

    edges: tuple[np.ndarray, ...]

    @property
    def n_features(self) -> int:
        return len(self.edges)

    def n_bins(self, feature: int) -> int:
        return len(self.edges[feature]) + 1

    @property
    def max_bins(self) -> int:
        return max((len(e) for e in self.edges), default=0) + 1

    @cached_property
    def n_edges(self) -> np.ndarray:
        """Number of edges of each feature."""
        return np.array([len(e) for e in self.edges], dtype=np.int64)

    @cached_property
    def legal_splits(self) -> np.ndarray:
        """(n_features, max_bins - 1) mask: a split at bin ``b`` of feature
        ``f`` is legal iff ``f`` has edge ``b``."""
        return np.arange(self.max_bins - 1) < self.n_edges[:, None]

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map float matrix (n, m) to int32 bin codes (n, m), column-major.

        Column-major order lets the histogram scan read one feature's codes
        for a subset of rows without touching the other columns.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int32, order="F")
        for f in range(self.n_features):
            out[:, f] = np.searchsorted(self.edges[f], X[:, f], side="left")
        return out


def finite_slice(sorted_col: np.ndarray) -> np.ndarray:
    """The finite values of a column sorted ascending, NaNs last (as
    ``np.sort`` leaves them): the run between the -inf and the +inf/NaN ends."""
    lo = np.searchsorted(sorted_col, -np.inf, side="right")
    hi = np.searchsorted(sorted_col, np.inf, side="left")
    return sorted_col[lo:hi]


def sorted_quantiles(col: np.ndarray, probs) -> np.ndarray:
    """``numpy.quantile(col, probs)`` (method ``linear``) of an ascending,
    NaN-free, non-empty column, without re-partitioning it.

    The same arithmetic as numpy's: virtual index ``(n-1)·q`` between the
    values at its floor and the next index (both the last value at or past
    the end, with the weight numpy gives there), interpolated as
    ``a + (b-a)·t``, or ``b - (b-a)·(1-t)`` where ``t >= 0.5``. So every
    value equals numpy's bit for bit, except that a zero quantile of a
    column holding both -0.0 and 0.0 may carry the other sign: numpy takes
    it from whichever tied zero its partition leaves at that index.
    """
    n = len(col)
    virtual = (n - 1) * np.asarray(probs, dtype=np.float64)
    prev = np.floor(virtual)
    prev[virtual >= n - 1] = -1
    lo = prev.astype(np.intp)
    hi = np.where(lo < 0, lo, lo + 1)
    t = virtual - prev
    a, b = col[lo], col[hi]
    diff = b - a
    out = a + diff * t
    upper = t >= 0.5
    out[upper] = (b - diff * (1 - t))[upper]
    return out


def _feature_edges(sorted_col: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile candidate thresholds for one feature, from its sorted values.

    ``sorted_col`` is the column in ascending order, NaNs last (as
    ``np.sort`` leaves them). Non-finite values are ignored for edge
    estimation; they fall in the end bins. Midpoints between consecutive
    distinct quantiles are used as thresholds so that a threshold never
    equals a data value exactly (robust to the left/right searchsorted
    convention).
    """
    col = finite_slice(sorted_col)
    if col.size == 0:
        return np.empty(0, dtype=np.float64)
    uniq = col[np.concatenate(([True], col[1:] != col[:-1]))]
    if len(uniq) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(uniq) <= n_bins:
        return ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float64)
    qs = np.unique(sorted_quantiles(col, np.linspace(0, 1, n_bins + 1)[1:-1]))
    # Nudge each quantile to the midpoint between it and the next distinct
    # data value so thresholds fall strictly between observations.
    idx = np.searchsorted(uniq, qs, side="right")
    idx = np.clip(idx, 1, len(uniq) - 1)
    edges = (uniq[idx - 1] + uniq[idx]) / 2.0
    return np.unique(edges).astype(np.float64)


def bin_column(x: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, int32 codes) of one float column from a single argsort.

    Row ``i`` gets ``searchsorted(edges, x[i], 'left')``: the sorted
    values are cut where they pass each edge, and each run of the sorted
    order gets its bin number.
    """
    order = np.argsort(x)
    xs = x[order]
    edges = _feature_edges(xs, n_bins)
    cuts = np.searchsorted(xs, edges, side="right")
    run = np.diff(cuts, prepend=0, append=len(xs))
    codes = np.empty(len(xs), dtype=np.int32)
    codes[order] = np.repeat(np.arange(len(edges) + 1, dtype=np.int32), run)
    return edges, codes


def bin_matrix(X: np.ndarray, n_bins: int = 64) -> tuple[BinMapper, np.ndarray]:
    """Fit quantile bin edges on a (n, m) float matrix and bin it.

    Returns the mapper and the column-major int32 codes that
    ``mapper.transform(X)`` would give.
    """
    X = np.asarray(X, dtype=np.float64)
    codes = np.empty(X.shape, dtype=np.int32, order="F")
    edges = []
    for f in range(X.shape[1]):
        e, codes[:, f] = bin_column(X[:, f], n_bins)
        edges.append(e)
    return BinMapper(edges=tuple(edges)), codes
