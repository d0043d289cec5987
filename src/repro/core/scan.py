"""One fused, mergeable scan for the IV and Pearson filters (Algorithms 3–4).

Both filters read every candidate column once. :class:`ColumnStats` holds
what both need from a block of rows, in a form that merges exactly across
blocks:

* per-bin positive and total label counts on given bin edges, from
  :func:`bin_counts`, the one IV bin counter of both engines. A value
  ``x`` lands in bin ``searchsorted(edges, x, 'left')``, so bin ``b`` holds
  ``edges[b-1] < x <= edges[b]``, NaN and +inf land in the last bin and
  -inf in the first;
* the row count, the column means and the centred co-moments
  ``Σ (x − x̄)(x − x̄)ᵀ``, merged with the pairwise update of Chan, Golub &
  LeVeque (1979), which stays accurate where raw ``Σ x·xᵀ`` sums cancel.
  Means are taken of ``x − s``, where the shift ``s`` is the column's
  middle bin edge (0 without edges): every block of a scan shares the
  edges and so the shift, and a column far from 0 relative to its spread
  (say 1e6 ± 3) then keeps its digits through the merges;
* column minima and maxima, so a constant column is known exactly and
  correlates 0 with every other column.

The kernel is ``block → merge → finish``: :meth:`ColumnStats.of_block`
summarises one block, :meth:`ColumnStats.merge` combines two summaries,
and :meth:`ColumnStats.iv` / :meth:`ColumnStats.pearson` finish. It is
the one Pearson kernel of both engines: the local engine summarises its
frame as one block, the Spark engine every partition in one Spark job
(:func:`repro.gbdt.spark_backend.reduce_partitions`). The local engine's
IV runs :func:`bin_counts` alone (merged by addition) and the Spark
engine's runs it inside ``of_block``; both finish with :func:`iv_of_counts`,
so on the same edges the two give the same IV. ``pearson``
finishes in ``numpy.corrcoef``'s order (co-moments times 1/(n − 1),
divided by the standard deviations along the rows, then along the
columns, clipped to [−1, 1]), and only the columns that vary and hold no
NaN or ±inf enter a block's co-moment product, so one block without bin
edges gives ``numpy.corrcoef``'s matrix of those columns bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iv import iv_from_counts

__all__ = ["ColumnStats", "bin_counts", "iv_of_counts"]


@dataclass(frozen=True)
class ColumnStats:
    """Mergeable summary of ``m`` columns over some rows."""

    n: int
    mean: np.ndarray  # (m,) means of x − shift (see the module docstring)
    comoment: np.ndarray  # (m, m) centred Σ (x − x̄)(x − x̄)ᵀ
    lo: np.ndarray  # (m,) column minima
    hi: np.ndarray  # (m,) column maxima
    pos: np.ndarray  # (m, n_bins) int64 positive-label rows per bin
    count: np.ndarray  # (m, n_bins) int64 rows per bin

    @classmethod
    def empty(cls, edges: list[np.ndarray]) -> "ColumnStats":
        """Summary of no rows on these bin edges: the identity of :meth:`merge`."""
        m, n_bins = len(edges), _n_bins(edges)
        return cls(
            0,
            np.zeros(m),
            np.zeros((m, m)),
            np.full(m, np.inf),
            np.full(m, -np.inf),
            np.zeros((m, n_bins), dtype=np.int64),
            np.zeros((m, n_bins), dtype=np.int64),
        )

    @classmethod
    def of_block(
        cls, X: np.ndarray, y: np.ndarray, edges: list[np.ndarray]
    ) -> "ColumnStats":
        """Summary of one (n, m) block; ``edges[j]`` are column j's sorted
        distinct bin edges (empty: one bin). A constant column's
        co-moments are 0, and a column holding NaN or ±inf gets NaN ones."""
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        if n == 0:
            return cls.empty(edges)
        pos, count = bin_counts(X, y, edges)
        lo, hi = X.min(axis=0), X.max(axis=0)  # NaN when the column holds one
        finite = np.isfinite(lo) & np.isfinite(hi)
        shifts = _shifts(edges)
        mean = np.where(finite, lo - shifts, np.nan)
        comoment = np.where(finite[:, None] & finite, 0.0, np.nan)
        used = np.flatnonzero(finite & (hi > lo))
        if used.size:
            d = X.T[used]  # (used, n), one row per column
            d -= shifts[used, None]
            mean[used] = d.mean(axis=1)
            d -= mean[used, None]
            comoment[np.ix_(used, used)] = np.dot(d, d.T)
        return cls(n, mean, comoment, lo, hi, pos, count)

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        """Summary of both row sets (Chan et al.'s pairwise update)."""
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.mean - self.mean
        return ColumnStats(
            n,
            self.mean + delta * (other.n / n),
            self.comoment + other.comoment + np.outer(delta, delta) * (self.n * other.n / n),
            np.minimum(self.lo, other.lo),
            np.maximum(self.hi, other.hi),
            self.pos + other.pos,
            self.count + other.count,
        )

    def iv(self) -> np.ndarray:
        """Information value per column (:func:`iv_of_counts`)."""
        return iv_of_counts(self.pos, self.count)

    def pearson(self, idx: list[int] | None = None) -> np.ndarray:
        """Pearson matrix of the columns ``idx`` (default: all).

        Finished in ``numpy.corrcoef``'s order. A constant (or NaN- or
        ±inf-holding) column correlates 0 with every other column; the
        diagonal is 1.
        """
        idx = list(range(len(self.mean))) if idx is None else list(idx)
        c = self.comoment[np.ix_(idx, idx)] * (1 / max(self.n - 1, 1))
        var = np.diag(c)
        varies = (self.hi[idx] > self.lo[idx]) & (var > 0)
        sd = np.sqrt(np.where(varies, var, 1.0))
        with np.errstate(invalid="ignore"):  # inf / inf where a variance overflowed
            c /= sd[:, None]
            c /= sd[None, :]
        np.clip(c, -1.0, 1.0, out=c)
        c[~varies, :] = 0.0
        c[:, ~varies] = 0.0
        np.fill_diagonal(c, 1.0)
        return np.nan_to_num(c, nan=0.0, copy=False)


def bin_counts(
    X: np.ndarray, y: np.ndarray, edges: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(pos, count): (m, n_bins) int64 positive-label and total rows per bin
    of an (n, m) block on sorted, distinct ``edges[j]`` (empty: one bin), as
    ``bincount(searchsorted(edges[j], x, 'left'))`` counts them; they add
    across blocks. Bins 0 through ``b`` hold the values ``x <= edges[j][b]``
    (-0.0 equal to 0.0, NaN never), or every row if that edge is NaN, which
    ``searchsorted`` orders last."""
    X = np.asarray(X, dtype=np.float64)
    yb = np.asarray(y).astype(bool)
    # rows in bins 0 through b, all of them past a column's last edge
    pos = np.full((X.shape[1], _n_bins(edges)), np.count_nonzero(yb), dtype=np.int64)
    count = np.full_like(pos, len(X))
    for j, e in enumerate(edges):
        e = e[~np.isnan(e)]  # NaN edges sort last
        if len(e):  # gather a column's positive rows only to bin them
            x, x_pos = X[:, j], X[yb, j]
            for b, v in enumerate(e):
                count[j, b] = np.count_nonzero(x <= v)
                pos[j, b] = np.count_nonzero(x_pos <= v)
    return np.diff(pos, prepend=0), np.diff(count, prepend=0)


def iv_of_counts(pos: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Information value per column of (m, n_bins) bin counts, over bins 0
    through the column's highest non-empty bin: an empty bin below it is
    kept and smoothed by 0.5 like every other (:func:`repro.core.iv.iv_from_counts`)."""
    out = np.zeros(len(count))
    for j, (p, c) in enumerate(zip(pos, count)):
        k = c.nonzero()[0][-1] + 1 if c.any() else 0
        out[j] = iv_from_counts(p[:k], c[:k] - p[:k])
    return out


def _shifts(edges: list[np.ndarray]) -> np.ndarray:
    """Each column's middle edge where it is finite, else 0."""
    mid = [e[len(e) // 2] if len(e) else 0.0 for e in edges]
    return np.where(np.isfinite(mid), mid, 0.0)


def _n_bins(edges: list[np.ndarray]) -> int:
    """Bins per column in a :class:`ColumnStats` over these edges."""
    return max((len(e) for e in edges), default=0) + 1
