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
paper's own benchmark setting (4-core machine). ``SparkEngine`` holds a
Spark DataFrame and keeps every primitive distributed — the "industrial
scale" setting of §V-B — at one pass over the data per statistic:

* ``iv`` is one fused scan (:mod:`repro.core.scan`) that also merges the
  Pearson moments, so a ``corr`` over columns ``iv`` scanned runs no job;
* bin edges (IV and GBDT) come from one cache of ``approxQuantile``
  values, so each column's quantile sketch is fetched at most once per
  probability grid, and the ranking GBDT fetches none;
* ``add_generated`` only defines the new columns (cheap arithmetic that
  every scan recomputes), no job and no cache.

Tests assert the two engines agree. ``close()`` releases what an engine
cached; the caller's frame keeps its storage level.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..gbdt import GBDTClassifier
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

__all__ = ["LocalEngine", "SparkEngine"]


class LocalEngine:
    """Pandas/numpy engine (single-node vectorised)."""

    def __init__(self, pdf: pd.DataFrame, label_col: str):
        self.pdf = pdf.copy()
        self.label_col = label_col
        self.y = pdf[label_col].to_numpy().astype(np.int64)

    @property
    def feature_columns(self) -> list[str]:
        return [c for c in self.pdf.columns if c != self.label_col]

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        model = GBDTClassifier(**params)
        return model.fit(self.pdf[cols].to_numpy(dtype=np.float64), self.y)

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
        """Nothing to release."""


class SparkEngine:
    """Distributed engine over a Spark DataFrame.

    Every statistic scans the training frame. A cached input is read as
    given; an uncached one is read through a cached view that the engine
    owns and ``close`` releases, so the caller's frame keeps its storage
    level either way. (A frame built from pandas is a ``LocalRelation``,
    and Spark's optimiser evaluates a projection over one on the driver,
    row by row, every time a query is planned.)
    """

    def __init__(self, df: DataFrame, label_col: str, gbdt_cls=SparkGBDTClassifier):
        level = df.storageLevel
        cached = level.useMemory or level.useDisk
        self._owned: DataFrame | None = None if cached else df.select("*").cache()
        self.df = df if cached else self._owned
        self.label_col = label_col
        self._gbdt_cls = gbdt_cls
        self._quantiles: dict[str, dict[float, float]] = {}
        self._probs: set[float] = set()  # every probability asked for so far
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

    def fit_gbdt(self, cols: list[str], **params) -> SparkGBDTClassifier:
        model = self._gbdt_cls(**params)
        mapper = mapper_from_quantiles(self.quantiles(cols, quantile_probs(model.n_bins)))
        return model.fit(self.df, cols, self.label_col, mapper=mapper)

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return gain_ratios_spark(self.df, cols, self.label_col, combos)

    def iv(self, cols: list[str], beta: int = DEFAULT_BETA) -> dict[str, float]:
        """IV per column from one fused scan that also keeps the Pearson moments."""
        edges = [np.unique(q) for q in self.quantiles(cols, quantile_probs(beta))]
        stats = scan_spark(self.df, cols, self.label_col, edges)
        self._scanned = (list(cols), stats)
        return dict(zip(cols, stats.iv()))

    def corr(self, cols: list[str]) -> np.ndarray:
        """Pearson matrix, sliced from the last ``iv`` scan when it covered
        ``cols``; otherwise one scan of ``cols``."""
        scanned, stats = self._scanned
        if not set(cols) <= set(scanned):
            no_bins = [np.empty(0)] * len(cols)
            scanned, stats = cols, scan_spark(self.df, cols, self.label_col, no_bins)
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
