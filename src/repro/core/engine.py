"""Execution engines behind the SAFE pipeline.

All driver-side logic (path mining, combination sorting, greedy selection,
plan assembly) is engine-agnostic; an engine supplies the five
data-touching primitives over its held training frame:

* ``fit_gbdt(cols, **params)``   — XGBoost-substrate training
* ``gain_ratios(cols, combos)``  — Algorithm 2 partition statistics
* ``iv(cols)``                   — Algorithm 3 information values
* ``corr(cols)``                 — Algorithm 4 Pearson matrix
* ``add_generated(specs)``       — add generated feature columns

``LocalEngine`` holds a pandas frame and runs vectorised numpy — the
paper's own benchmark setting (4-core machine). It sorts each column once
per statistic: ``iv`` takes its bin counts from sorted values
(:func:`repro.core.iv.iv_scores`), and ``fit_gbdt`` keeps every column's
GBDT bin edges and codes (:func:`repro.gbdt.binning.bin_matrix`) for the
engine's lifetime, so the ranking GBDT re-bins no column the mining GBDT
binned.

``SparkEngine`` holds a Spark DataFrame — the "industrial scale" setting
of §V-B. Bin edges (IV and GBDT) come from one cache of
``approxQuantile`` values, asked for on the IV grid and the GBDT grid at
once, so each column's sketch is fetched once and the IV fetch and the
ranking GBDT fetch only generated columns. Each statistic then runs on
one of two paths, chosen once per engine from the optimizer's size
estimate of its frame, which runs no Spark job:

* *collected*, when the estimate is within :data:`COLLECT_BUDGET_BYTES`.
  A Spark job costs about 0.3 s whatever it reads, so a small frame is
  collected to the driver (one Arrow collect of the label and the input
  columns; each generated column when a statistic first needs it) and the
  block kernels that the distributed scans run on every partition run
  once on that block: :meth:`ColumnStats.of_block` for IV and Pearson,
  :func:`repro.core.gain_ratio.gain_ratios`, and
  :meth:`GBDTClassifier.fit_binned` on the block's bin codes;
* *distributed* otherwise, at one pass over the data per statistic:
  ``iv`` is one fused scan (:func:`repro.core.scan.scan_spark`) that also
  merges the Pearson moments, gain ratios merge per-partition
  contingencies, and :class:`SparkGBDTClassifier` aggregates histogram
  partials.

Either way a ``corr`` over columns ``iv`` scanned reads no data, and
``add_generated`` only defines the new columns (cheap arithmetic), no job
and no cache. The two paths run the same kernels on the same edges, so
their counts agree exactly; the GBDT histograms and Pearson moments of
several partitions are summed in another order, which can move a float
in its last bits (tests assert byte-identical plans on 1 and 4
partitions). Tests assert the engines agree. ``close()`` releases
what an engine cached or collected; the caller's frame keeps its storage
level.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..gbdt import GBDTClassifier
from ..gbdt.binning import BinMapper, bin_matrix
from ..gbdt.spark_backend import (
    QUANTILE_REL_ERROR,
    SparkGBDTClassifier,
    mapper_from_quantiles,
    quantile_probs,
)
from .combos import FeatureCombo
from .correlation import pearson_matrix
from .gain_ratio import gain_ratios, gain_ratios_spark
from .iv import DEFAULT_BETA, iv_scores
from .plan import FeatureSpec
from .scan import ColumnStats, scan_spark

__all__ = ["COLLECT_BUDGET_BYTES", "LocalEngine", "SparkEngine"]

#: Largest optimizer size estimate (bytes) of a training frame that
#: ``SparkEngine`` collects to the driver. A bound on driver memory, not a
#: speed crossover: the collected path was 3-4x faster than the
#: distributed one at every size swept (magic and Data1 at scales 0.05,
#: 0.25 and 1.0, 10-tree GBDTs, local[1] and local[4]), while its extra
#: driver peak RSS grew as about 19x the estimate (+114 MB at 6.2 MB,
#: +467 MB at 24.6 MB). The block holds rows x (M + generated + 1) x 8 B,
#: and one iteration generates at most 6 features per kept combination
#: (12M at the default gamma = 2M): at most about 13x the estimate, ~104 MiB
#: at this budget. Frames over it, and sources with no size estimate,
#: stay distributed. The bound is not enforced, and it has two limits:
#: the path is chosen once, from the input, so with ``n_iterations > 1``
#: each iteration adds up to 12M more columns to the block; and for a
#: file source (Parquet, ORC) the estimate is bytes on disk, usually
#: compressed, so the block can be many times larger than the estimate.
#: Only in-memory inputs over one iteration stay within ~13x.
COLLECT_BUDGET_BYTES = 8 << 20


class LocalEngine:
    """Pandas/numpy engine (single-node vectorised)."""

    def __init__(self, pdf: pd.DataFrame, label_col: str):
        self.pdf = pdf.copy()
        self.label_col = label_col
        self.y = pdf[label_col].to_numpy().astype(np.int64)
        # (column, n_bins) -> (edges, codes) of every column a GBDT was fitted
        # on; a column's values never change once it is in the frame
        self._bins: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def feature_columns(self) -> list[str]:
        return [c for c in self.pdf.columns if c != self.label_col]

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        """Fit on cached bin codes; only columns not binned before are sorted."""
        model = GBDTClassifier(**params)
        n_bins = model.n_bins
        missing = [c for c in cols if (c, n_bins) not in self._bins]
        if missing:
            binned, block = bin_matrix(self.pdf[missing].to_numpy(dtype=np.float64), n_bins)
            # kept in the narrowest type that holds a code (< n_bins), one
            # block per call: int32 codes kept through the fit raised the
            # local-tall peak RSS by 6-13%, the narrow block by nothing
            kept = block.astype(np.min_scalar_type(n_bins), order="F")
            for j, c in enumerate(missing):
                self._bins[c, n_bins] = (binned.edges[j], kept[:, j])
        codes = np.empty((len(self.y), len(cols)), dtype=np.int32, order="F")
        for j, c in enumerate(cols):
            codes[:, j] = self._bins[c, n_bins][1]
        mapper = BinMapper(edges=tuple(self._bins[c, n_bins][0] for c in cols))
        return model.fit_binned(codes, mapper, self.y)

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return gain_ratios(self.pdf[cols], self.y, combos)

    def iv(self, cols: list[str], beta: int = 10) -> dict[str, float]:
        return iv_scores(self.pdf, self.y, beta=beta, columns=cols)

    def corr(self, cols: list[str]) -> np.ndarray:
        return pearson_matrix(self.pdf[cols])

    def add_generated(self, specs: list[FeatureSpec]) -> None:
        new_cols = {}
        for s in specs:
            if s.name in self.pdf.columns:
                continue
            args = []
            for i in s.inputs:
                src = new_cols[i] if i in new_cols else self.pdf[i].to_numpy(dtype=np.float64)
                args.append(src)
            new_cols[s.name] = s.operator.np_fn(*args)
        if new_cols:
            self.pdf = pd.concat(
                [self.pdf, pd.DataFrame(new_cols, index=self.pdf.index)], axis=1
            )

    def close(self) -> None:
        """Drop the cached GBDT bins."""
        self._bins.clear()


class SparkEngine:
    """Engine over a Spark DataFrame.

    Every statistic reads the training frame. A cached input is read as
    given; an uncached one is read through a cached view that the engine
    owns and ``close`` releases, so the caller's frame keeps its storage
    level either way. (A frame built from pandas is a ``LocalRelation``,
    and Spark's optimiser evaluates a projection over one on the driver,
    row by row, every time a query is planned.)

    ``collected`` is chosen once, from the optimizer's size estimate of
    that frame (which runs no job): within :data:`COLLECT_BUDGET_BYTES`,
    the statistics run their block kernels on a copy of the frame
    collected to the driver; otherwise each runs distributed.
    """

    def __init__(self, df: DataFrame, label_col: str):
        level = df.storageLevel
        cached = level.useMemory or level.useDisk
        self._owned: DataFrame | None = None if cached else df.select("*").cache()
        self.df = df if cached else self._owned
        self.label_col = label_col
        self.collected = _size_estimate(self.df) <= COLLECT_BUDGET_BYTES
        # column -> float64 values collected to the driver (collected path)
        self._block: dict[str, np.ndarray] = {}
        self._quantiles: dict[str, dict[float, float]] = {}
        # every probability asked for so far; the IV grid is asked for up
        # front, so the mining GBDT's fetch also serves IV's base columns
        self._probs: set[float] = set(quantile_probs(DEFAULT_BETA))
        self._scanned: tuple[list[str], ColumnStats] = ([], ColumnStats.empty(0, 1))

    @property
    def feature_columns(self) -> list[str]:
        return [c for c in self.df.columns if c != self.label_col]

    def quantiles(self, cols: list[str], probs: list[float]) -> list[list[float]]:
        """``df.stat.approxQuantile(cols, probs, QUANTILE_REL_ERROR)``, cached.

        A column's sketch does not depend on the probabilities asked of it,
        so a fetch asks for the union of every grid seen so far and keeps
        all values; a column already fetched on a superset of ``probs``
        costs no Spark job.
        """
        self._probs.update(probs)
        missing = [c for c in cols if not self._quantiles.get(c, {}).keys() >= set(probs)]
        if missing:
            grid = sorted(self._probs)
            fetched = self.df.stat.approxQuantile(missing, grid, QUANTILE_REL_ERROR)
            for c, values in zip(missing, fetched):
                self._quantiles[c] = dict(zip(grid, values))
        return [[self._quantiles[c][p] for p in probs if p in self._quantiles[c]] for c in cols]

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier | SparkGBDTClassifier:
        model = (GBDTClassifier if self.collected else SparkGBDTClassifier)(**params)
        # rows before edges: a collect fills an uncached input's view within
        # its own job, where an approxQuantile would need a job more
        rows = self._rows(cols) if self.collected else None
        mapper = mapper_from_quantiles(self.quantiles(cols, quantile_probs(model.n_bins)))
        if rows is None:
            return model.fit(self.df, cols, self.label_col, mapper=mapper)
        X, y = rows
        return model.fit_binned(mapper.transform(X), mapper, y)

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        if self.collected:
            return gain_ratios(*self._rows(cols), combos)
        return gain_ratios_spark(self.df, cols, self.label_col, combos)

    def iv(self, cols: list[str], beta: int = DEFAULT_BETA) -> dict[str, float]:
        """IV per column from one fused scan that also keeps the Pearson moments."""
        edges = [np.unique(q) for q in self.quantiles(cols, quantile_probs(beta))]
        stats = self._scan(cols, edges)
        self._scanned = (list(cols), stats)
        return dict(zip(cols, stats.iv()))

    def corr(self, cols: list[str]) -> np.ndarray:
        """Pearson matrix, sliced from the last ``iv`` scan when it covered
        ``cols``; otherwise one scan of ``cols``."""
        scanned, stats = self._scanned
        if not set(cols) <= set(scanned):
            scanned, stats = cols, self._scan(cols, [np.empty(0)] * len(cols))
        at = {c: i for i, c in enumerate(scanned)}
        return stats.pearson([at[c] for c in cols])

    def _scan(self, cols: list[str], edges: list[np.ndarray]) -> ColumnStats:
        if self.collected:
            return ColumnStats.of_block(*self._rows(cols), edges)
        return scan_spark(self.df, cols, self.label_col, edges)

    def _rows(self, cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` of ``cols`` from the block collected to the driver.

        The first call collects every column of the engine frame (in a
        SAFE fit: the label and the input columns); a generated column is
        collected when first asked for, not recomputed with ``np_fn`` (the
        Spark and numpy ``div`` differ on a NaN divisor).
        """
        if not self._block:
            self._collect(self.df.columns)
        self._collect([c for c in cols if c not in self._block])
        y = self._block[self.label_col]
        X = np.empty((len(y), len(cols)), order="F")
        for j, c in enumerate(cols):
            X[:, j] = self._block[c]
        return X, y

    def _collect(self, cols: list[str]) -> None:
        """Add ``cols`` of the engine frame to the block (one Arrow collect)."""
        if not cols:
            return
        pdf = self.df.select(*cols).toPandas()
        if self._block and len(pdf) != len(self._block[self.label_col]):
            raise RuntimeError(
                f"collected {len(pdf)} rows of {cols}, "
                f"{len(self._block[self.label_col])} in the block before"
            )
        for c in cols:
            self._block[c] = pdf[c].to_numpy(dtype=np.float64)

    def add_generated(self, specs: list[FeatureSpec]) -> None:
        from pyspark.sql import functions as F

        exprs = []
        existing = set(self.df.columns)
        col_expr: dict = {}
        for s in specs:
            if s.name in existing:
                continue
            args = [col_expr.get(i, F.col(i)) for i in s.inputs]
            expr = s.operator.spark_fn(*args)
            col_expr[s.name] = expr
            exprs.append(expr.alias(s.name))
        if exprs:
            self.df = self.df.select("*", *exprs)

    def close(self) -> None:
        """Drop the collected block and release the view this engine cached
        (the caller's frame is untouched)."""
        self._block.clear()
        if self._owned is not None:
            self._owned.unpersist()
            self._owned = None


def _size_estimate(df: DataFrame) -> int:
    """The optimizer's size estimate of ``df`` in bytes (runs no Spark job).

    A source without statistics reports ``Long.MAX_VALUE``.
    """
    return int(df._jdf.queryExecution().optimizedPlan().stats().sizeInBytes())
