"""Execution engines behind the SAFE pipeline.

All driver-side logic (path mining, combination sorting, greedy selection,
plan assembly) is engine-agnostic; an engine supplies the five
data-touching primitives over its held training frame:

* ``fit_gbdt(cols, **params)``   — XGBoost-substrate training
* ``gain_ratios(cols, combos)``  — Algorithm 2 partition statistics
* ``iv(cols)``                   — Algorithm 3 information values
* ``corr(cols)``                 — Algorithm 4 Pearson matrix
* ``add_generated(specs)``       — add generated feature columns

Gain ratios, IV and the Pearson matrix are one block kernel each, run by
both engines through ``_reduce(cols, kernel, merge, zero)``:
:func:`repro.core.gain_ratio.cell_counts`, :func:`repro.core.scan.bin_counts`
(one IV finish, :func:`~repro.core.scan.iv_of_counts`), and the co-moments
of :class:`repro.core.scan.ColumnStats`, whose Pearson finish follows
``numpy.corrcoef``. The engines differ in how they produce blocks and in
their bin edges: exact quantiles locally, ``approxQuantile`` on Spark.

``LocalEngine`` holds its training columns as a dict of float64 arrays
and runs vectorised numpy — the paper's own benchmark setting (4-core
machine). Its ``_reduce`` runs a kernel once, on all rows of the asked
columns. ``add_generated`` inserts the new arrays, so no step copies the
whole frame. ``iv`` reads its edges from each column sorted once
(:func:`repro.core.iv.sorted_edges`); ``corr`` runs its own edge-free
``ColumnStats`` scan, ``numpy.corrcoef``'s matrix bit for bit.
``fit_gbdt`` keeps every column's GBDT bin edges and codes
(:func:`repro.gbdt.binning.bin_column`) for the engine's lifetime, so the
ranking GBDT re-bins no column the mining GBDT binned.

``SparkEngine`` holds a Spark DataFrame — the "industrial scale" setting
of §V-B — and runs every statistic distributed, at one pass over the data
per statistic. Its ``_reduce`` runs a kernel on every partition and
merges the partials on the driver, through one helper,
:func:`repro.gbdt.spark_backend.reduce_partitions`: ``iv`` is one fused
:class:`~repro.core.scan.ColumnStats` scan that also merges the Pearson
moments, and ``fit_gbdt`` grows a plain :class:`GBDTClassifier` whose
histograms are summed the same way
(:func:`repro.gbdt.spark_backend.fit_spark`). Bin edges (IV and GBDT)
come from one cache of ``approxQuantile`` values, asked for on the IV
grid and the GBDT grid at once, so each column's sketch is fetched once
and the IV fetch and the ranking GBDT fetch only generated columns. A
``corr`` over columns ``iv`` scanned reads no data, and ``add_generated``
only defines the new columns (cheap arithmetic), no job and no cache.

:meth:`repro.core.pipeline.SafePipeline._make_engine` chooses between
them for a Spark input: a frame within :data:`COLLECT_BUDGET_BYTES` is
collected and fitted by ``LocalEngine``, a larger one by
``SparkEngine``. Tests assert the engines agree. ``close()`` releases
what an engine cached; the caller's frame keeps its storage level.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..gbdt import GBDTClassifier, binning
from ..gbdt.binning import BinMapper
from ..gbdt.spark_backend import (
    QUANTILE_REL_ERROR,
    fit_spark,
    mapper_from_quantiles,
    quantile_probs,
    reduce_partitions,
)
from .combos import FeatureCombo
from .gain_ratio import cell_counts, gain_ratios_from_cell_counts, n_cells
from .iv import DEFAULT_BETA, sorted_edges
from .plan import FeatureSpec
from .scan import ColumnStats, bin_counts, iv_of_counts

__all__ = ["COLLECT_BUDGET_BYTES", "LocalEngine", "SparkEngine"]

#: Largest optimizer size estimate (bytes) of a Spark training frame that
#: ``SafePipeline`` collects and fits with ``LocalEngine``; larger
#: frames, and sources with no size estimate, get ``SparkEngine``.
#: A bound on driver memory, not a speed crossover: the driver fit was
#: 25-100x faster than the distributed fit at every size measured. Peak
#: RSS added by one fit with 10-tree depth-3 GBDTs of a cached input
#: (local[1]), Python driver on the driver fit / on the distributed fit:
#: magic (0.35 MB estimate) 17 / 32 MB, Data1 at scale 0.05 (1.2 MB)
#: 40 / 34 MB, Data1 at scale 0.25 (6.2 MB) 81-93 MB (~15x the estimate)
#: / 26 MB; the driver JVM added 11-95 MB / 320-900 MB. The driver-fit
#: figures were measured while ``LocalEngine`` held a pandas frame that
#: ``add_generated`` rebuilt with ``pd.concat``; holding the columns as
#: arrays lowered local-tall's peak from 260.5 to 235.5 MB (medians of 10
#: runs), so they likely overstate today's. The bound is not enforced:
#: with ``n_iterations > 1`` each iteration adds generated columns, and
#: for a file source (Parquet, ORC) the estimate is bytes on disk,
#: usually compressed, so the frame can be many times larger.
COLLECT_BUDGET_BYTES = 8 << 20


def _gain_ratios(reduce, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
    """Algorithm 2 through an engine's ``_reduce``: cell counts, then the finish."""
    zero = np.zeros(2 * n_cells(combos), dtype=np.int64)
    counts = reduce(cols, lambda X, y: cell_counts(X, y, combos), np.add, zero)
    return gain_ratios_from_cell_counts(counts, combos)


def _scan(reduce, cols: list[str], edges: list[np.ndarray]) -> ColumnStats:
    """:class:`ColumnStats` of ``cols`` on ``edges`` through an engine's ``_reduce``."""
    kernel = lambda X, y: ColumnStats.of_block(X, y, edges)  # noqa: E731
    return reduce(cols, kernel, ColumnStats.merge, ColumnStats.empty(edges))


class LocalEngine:
    """Numpy engine (single-node vectorised) over a dict of float64 columns."""

    def __init__(self, pdf: pd.DataFrame, label_col: str):
        self.label_col = label_col
        self.y = pdf[label_col].to_numpy().astype(np.int64)
        # feature name -> float64 values, in frame order, then generated
        # columns in the order they were added; copied once here
        self.columns: dict[str, np.ndarray] = {
            c: pdf[c].to_numpy(dtype=np.float64, copy=True)
            for c in pdf.columns
            if c != label_col
        }
        # (column, n_bins) -> (edges, codes) of every column a GBDT was fitted
        # on; a column's values never change once it is in the store
        self._bins: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def feature_columns(self) -> list[str]:
        return list(self.columns)

    def _matrix(self, cols: list[str]) -> np.ndarray:
        """(n, len(cols)) float64 matrix of ``cols``, column-major (the
        layout a pandas frame's ``to_numpy`` gives)."""
        return np.stack([self.columns[c] for c in cols]).T

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        """Fit on cached bin codes; only columns not binned before are sorted."""
        model = GBDTClassifier(**params)
        n_bins = model.n_bins
        # codes are kept in the narrowest type that holds one (< n_bins):
        # int32 codes kept through the fit raised the local-tall peak RSS
        # by 6-13%, narrow ones by nothing
        narrow = np.min_scalar_type(n_bins)
        for c in cols:
            if (c, n_bins) not in self._bins:
                edges, codes = binning.bin_column(self.columns[c], n_bins)
                self._bins[c, n_bins] = (edges, codes.astype(narrow))
        # intp, the index type np.bincount counts: fit_binned takes it as is
        codes = np.empty((len(self.y), len(cols)), dtype=np.intp, order="F")
        for j, c in enumerate(cols):
            codes[:, j] = self._bins[c, n_bins][1]
        mapper = BinMapper(edges=tuple(self._bins[c, n_bins][0] for c in cols))
        return model.fit_binned(codes, mapper, self.y)

    def _reduce(self, cols: list[str], kernel, merge, zero):
        """``kernel(X, y)`` of the one block (all rows of ``cols`` and the
        label), merged into ``zero`` as ``SparkEngine._reduce`` merges partials."""
        return merge(zero, kernel(self._matrix(cols), self.y))

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return _gain_ratios(self._reduce, cols, combos)

    def iv(self, cols: list[str], beta: int = DEFAULT_BETA) -> dict[str, float]:
        """IV per column, binned on exact edges read from each sorted column."""
        edges = [sorted_edges(np.sort(self.columns[c]), beta) for c in cols]
        pos, count = self._reduce(cols, lambda X, y: bin_counts(X, y, edges), np.add, 0)
        return dict(zip(cols, iv_of_counts(pos, count)))

    def corr(self, cols: list[str]) -> np.ndarray:
        return _scan(self._reduce, cols, [np.empty(0)] * len(cols)).pearson()

    def add_generated(self, specs: list[FeatureSpec]) -> None:
        """Insert each new column's values; a spec may read one added before it."""
        for s in specs:
            if s.name not in self.columns:
                self.columns[s.name] = s.operator.np_fn(*(self.columns[i] for i in s.inputs))

    def close(self) -> None:
        """Drop the cached GBDT bins."""
        self._bins.clear()


class SparkEngine:
    """Distributed engine over a Spark DataFrame.

    Every statistic reads the training frame. A cached input is read as
    given; an uncached one is read through a cached view that the engine
    owns and ``close`` releases, so the caller's frame keeps its storage
    level either way. (A frame built from pandas is a ``LocalRelation``,
    and Spark's optimiser evaluates a projection over one on the driver,
    row by row, every time a query is planned.)
    """

    def __init__(self, df: DataFrame, label_col: str):
        level = df.storageLevel
        cached = level.useMemory or level.useDisk
        self._owned: DataFrame | None = None if cached else df.select("*").cache()
        self.df = df if cached else self._owned
        self.label_col = label_col
        self._quantiles: dict[str, dict[float, float]] = {}
        # every probability asked for so far; the IV grid is asked for up
        # front, so the mining GBDT's fetch also serves IV's base columns
        self._probs: set[float] = set(quantile_probs(DEFAULT_BETA))
        self._scanned: tuple[list[str], ColumnStats] = ([], ColumnStats.empty([]))

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

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        model = GBDTClassifier(**params)
        mapper = mapper_from_quantiles(self.quantiles(cols, quantile_probs(model.n_bins)))
        return fit_spark(model, self.df, cols, self.label_col, mapper)

    def _reduce(self, cols: list[str], kernel, merge, zero):
        """``kernel(X, y)`` of every block of ``cols`` (float64) and the
        label, merged across the frame in one Spark job."""
        label = self.label_col

        def block(pdf):
            return kernel(pdf[cols].to_numpy(dtype=np.float64), pdf[label].to_numpy())

        return reduce_partitions(self.df.select(*cols, label), block, merge, zero)

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return _gain_ratios(self._reduce, cols, combos)

    def iv(self, cols: list[str], beta: int = DEFAULT_BETA) -> dict[str, float]:
        """IV per column from one fused scan that also keeps the Pearson moments."""
        edges = [np.unique(q) for q in self.quantiles(cols, quantile_probs(beta))]
        stats = _scan(self._reduce, cols, edges)
        self._scanned = (list(cols), stats)
        return dict(zip(cols, stats.iv()))

    def corr(self, cols: list[str]) -> np.ndarray:
        """Pearson matrix, sliced from the last ``iv`` scan when it covered
        ``cols``; otherwise one scan of ``cols``."""
        scanned, stats = self._scanned
        if not set(cols) <= set(scanned):
            scanned = cols
            stats = _scan(self._reduce, cols, [np.empty(0)] * len(cols))
        at = {c: i for i, c in enumerate(scanned)}
        return stats.pearson([at[c] for c in cols])

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
        """Release the view this engine cached (the caller's frame is untouched)."""
        if self._owned is not None:
            self._owned.unpersist()
            self._owned = None
