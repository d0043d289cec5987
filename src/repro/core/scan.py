"""One fused, mergeable scan for the IV and Pearson filters (Algorithms 3–4).

Both filters read every candidate column once. :class:`ColumnStats` holds
what both need from a block of rows, in a form that merges exactly across
blocks:

* per-bin positive and total label counts on given bin edges. A value
  ``x`` lands in bin ``searchsorted(edges, x, 'left')``, so bin ``b`` holds
  ``edges[b-1] < x <= edges[b]`` and NaN lands in the last bin;
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
and :meth:`ColumnStats.iv` / :meth:`ColumnStats.pearson` finish.
:func:`scan_spark` runs ``of_block`` in one ``mapInPandas`` pass (one Spark
job) and merges the per-partition partials on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from .iv import iv_from_counts

__all__ = ["ColumnStats", "scan_spark"]


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
    def empty(cls, m: int, n_bins: int) -> "ColumnStats":
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
        distinct bin edges (empty: one bin)."""
        X = np.asarray(X, dtype=np.float64)
        n, m = X.shape
        n_bins = _n_bins(edges)
        if n == 0:
            return cls.empty(m, n_bins)
        codes = np.empty((n, m), dtype=np.int64)
        for j, e in enumerate(edges):
            codes[:, j] = np.searchsorted(e, X[:, j], side="left")
        codes += np.arange(m) * n_bins  # column j's bins at j·n_bins..
        yb = np.asarray(y).astype(bool)
        size = m * n_bins
        shifted = X - _shifts(edges)
        mean = shifted.mean(axis=0)
        d = shifted - mean
        return cls(
            n,
            mean,
            d.T @ d,
            X.min(axis=0),
            X.max(axis=0),
            np.bincount(codes[yb].ravel(), minlength=size).reshape(m, n_bins),
            np.bincount(codes.ravel(), minlength=size).reshape(m, n_bins),
        )

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
        """Information value per column over its non-empty bins."""
        out = np.empty(len(self.mean))
        for j, (pos, count) in enumerate(zip(self.pos, self.count)):
            nz = count > 0
            out[j] = iv_from_counts(pos[nz], count[nz] - pos[nz])
        return out

    def pearson(self, idx: list[int] | None = None) -> np.ndarray:
        """Pearson matrix of the columns ``idx`` (default: all).

        A constant (or NaN-holding) column correlates 0 with every other
        column; the diagonal is 1.
        """
        idx = list(range(len(self.mean))) if idx is None else list(idx)
        c = self.comoment[np.ix_(idx, idx)]
        var = np.diag(c)
        varies = (self.hi[idx] > self.lo[idx]) & (var > 0)
        sd = np.sqrt(np.where(varies, var, 1.0))
        with np.errstate(invalid="ignore"):
            r = np.clip(c / np.outer(sd, sd), -1.0, 1.0)
        r[~varies, :] = 0.0
        r[:, ~varies] = 0.0
        np.fill_diagonal(r, 1.0)
        return np.nan_to_num(r, nan=0.0)

    # -- wire format of a Spark partial ------------------------------------
    def to_bytes(self) -> tuple[bytes, bytes]:
        floats = np.concatenate(
            [[float(self.n)], self.mean, self.comoment.ravel(), self.lo, self.hi]
        )
        return floats.tobytes(), np.concatenate([self.pos.ravel(), self.count.ravel()]).tobytes()

    @classmethod
    def from_bytes(cls, m: int, n_bins: int, floats: bytes, ints: bytes) -> "ColumnStats":
        f = np.frombuffer(floats, dtype=np.float64)
        i = np.frombuffer(ints, dtype=np.int64).reshape(2, m, n_bins)
        mean, co, lo, hi = np.split(f[1:], np.cumsum([m, m * m, m]))
        return cls(int(f[0]), mean, co.reshape(m, m), lo, hi, i[0], i[1])


def _shifts(edges: list[np.ndarray]) -> np.ndarray:
    """Each column's middle edge where it is finite, else 0."""
    mid = [e[len(e) // 2] if len(e) else 0.0 for e in edges]
    return np.where(np.isfinite(mid), mid, 0.0)


def _n_bins(edges: list[np.ndarray]) -> int:
    """Bins per column in a :class:`ColumnStats` over these edges."""
    return max((len(e) for e in edges), default=0) + 1


def scan_spark(
    df: DataFrame, cols: list[str], label_col: str, edges: list[np.ndarray]
) -> ColumnStats:
    """:class:`ColumnStats` of ``cols`` over ``df`` in one Spark job.

    Each partition merges its Arrow batches into one partial and ships it
    as two byte strings; the driver merges the partials.
    """
    m, n_bins = len(cols), _n_bins(edges)

    def partial(batches):
        acc = ColumnStats.empty(m, n_bins)
        for pdf in batches:
            block = ColumnStats.of_block(
                pdf[cols].to_numpy(dtype=np.float64), pdf[label_col].to_numpy(), edges
            )
            acc = acc.merge(block)
        floats, ints = acc.to_bytes()
        yield pd.DataFrame({"floats": [floats], "ints": [ints]})

    rows = (
        df.select(*cols, label_col)
        .mapInPandas(partial, schema="floats binary, ints binary")
        .collect()
    )
    parts = (ColumnStats.from_bytes(m, n_bins, bytes(r.floats), bytes(r.ints)) for r in rows)
    return reduce(ColumnStats.merge, parts, ColumnStats.empty(m, n_bins))
