"""Distributed GBDT training over a Spark DataFrame.

Architecture (same as distributed XGBoost's histogram algorithm):

1. bin edges → a broadcast ``BinMapper``. ``fit`` takes the mapper from
   its caller (``SparkEngine`` serves the edges from its quantile cache,
   so a fit inside SAFE makes no ``approxQuantile`` call of its own) or
   makes one ``approxQuantile`` call;
2. the binned frame (int bin codes + label) is a lazy ``mapInPandas`` over
   the input's own partitions, coalesced, never shuffled, to at most
   ``sparkContext.defaultParallelism`` of them, and cached. No job counts
   or materialises it: the root histogram pass fills the cache and later
   passes read it;
3. each tree level is one ``mapInPandas`` scan: every partition recomputes
   its rows' margins from the broadcast forest-so-far, derives gradients,
   routes rows to frontier slots with the broadcast partial tree, and emits
   its (slot, feature, bin) → (Σg, Σh) partial histogram; the tiny
   partials are collected and summed on the driver (treeAggregate-style),
   which then runs the exact same :func:`repro.gbdt.tree.grow_tree`
   split logic as the numpy engine. Below the root the frontier holds only
   the smaller-hessian child of each split (the driver derives the
   sibling), so partials carry one slot per split instead of two.

A fit of K trees of depth D therefore runs at most K·D histogram jobs,
plus the ``approxQuantile`` call when it fetches its own edges.

Margins are recomputed statelessly per scan (no mutable column chain, no
lineage growth). That is not free: on one 25k×40 partition, re-predicting
19 earlier trees took 151 ms per level against 16 ms for slot assignment
plus histogram, so with many trees the re-prediction, not the scan,
dominates each level's task time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


from .binning import BinMapper
from .boosting import GBDTClassifier, logistic_grad_hess, sigmoid
from .tree import Tree, assign_slots, build_histograms, grow_tree

__all__ = ["SparkGBDTClassifier", "mapper_from_quantiles", "quantile_probs"]

#: relative error of every ``approxQuantile`` call behind the Spark engine
QUANTILE_REL_ERROR = 0.001


def quantile_probs(n_bins: int) -> list[float]:
    """The inner quantiles that cut a column into ``n_bins`` equal-frequency bins."""
    return list(np.linspace(0, 1, n_bins + 1)[1:-1])


def mapper_from_quantiles(quantiles: list[list[float]]) -> BinMapper:
    """``BinMapper`` whose edges are each column's distinct quantile values."""
    return BinMapper(
        edges=tuple(np.unique(np.asarray(q, dtype=np.float64)) for q in quantiles)
    )


@dataclass
class SparkGBDTClassifier:
    """Same model/introspection surface as :class:`GBDTClassifier`,
    trained distributed. ``predict_proba``/``paths``/``split_features``/
    ``feature_importances`` behave identically (the fitted forest is plain
    driver-side :class:`Tree` objects)."""

    n_estimators: int = 10
    max_depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1e-3
    n_bins: int = 64
    base_score: float = 0.5

    trees_: list[Tree] = field(default_factory=list, repr=False)
    mapper_: BinMapper | None = field(default=None, repr=False)
    n_features_: int = 0

    def fit(
        self,
        df: DataFrame,
        feature_cols: list[str],
        label_col: str,
        mapper: BinMapper | None = None,
    ) -> "SparkGBDTClassifier":
        """Train on ``df``. ``mapper`` holds precomputed bin edges; without
        it the edges come from one ``approxQuantile`` call (relative error
        ``QUANTILE_REL_ERROR``)."""
        self.n_features_ = len(feature_cols)
        if mapper is None:
            mapper = mapper_from_quantiles(
                df.stat.approxQuantile(
                    feature_cols, quantile_probs(self.n_bins), QUANTILE_REL_ERROR
                )
            )
        self.mapper_ = mapper
        spark = df.sparkSession
        mapper_bc = spark.sparkContext.broadcast(self.mapper_)
        max_bins = self.mapper_.max_bins
        m = len(feature_cols)
        base_margin = self._base_margin()

        def to_codes(iterator):
            for pdf in iterator:
                codes = mapper_bc.value.transform(
                    pdf[feature_cols].to_numpy(dtype=np.float64)
                )
                out = pd.DataFrame(
                    codes, columns=[f"c{i}" for i in range(m)]
                ).astype("int32")
                out["_y"] = pdf[label_col].to_numpy(dtype=np.float64)
                yield out

        code_cols = ", ".join(f"c{i} int" for i in range(m))
        binned = (
            df.select(*feature_cols, label_col)
            .mapInPandas(to_codes, schema=f"{code_cols}, _y double")
            .coalesce(spark.sparkContext.defaultParallelism)
            .cache()
        )

        self.trees_ = []
        try:
            for _k in range(self.n_estimators):
                trees_bc = spark.sparkContext.broadcast(self.trees_)

                def hist_fn(tree, frontier, _trees_bc=trees_bc):
                    n_slots = max(frontier) + 1
                    tree_bc = spark.sparkContext.broadcast((tree, dict(frontier)))

                    def partial(iterator):
                        ptree, pfrontier = tree_bc.value
                        for pdf in iterator:
                            codes = np.asfortranarray(
                                pdf[[f"c{i}" for i in range(m)]].to_numpy(
                                    dtype=np.int32
                                )
                            )
                            y = pdf["_y"].to_numpy(dtype=np.float64)
                            margin = np.full(len(y), base_margin)
                            for t in _trees_bc.value:
                                margin += t.predict_binned(codes)
                            grad, hess = logistic_grad_hess(margin, y)
                            slots = assign_slots(ptree, pfrontier, codes)
                            gh, hh = build_histograms(
                                codes, grad, hess, slots, n_slots, max_bins
                            )
                            s_i, f_i, b_i = np.nonzero((gh != 0) | (hh != 0))
                            yield pd.DataFrame(
                                {
                                    "slot": s_i.astype(np.int32),
                                    "feat": f_i.astype(np.int32),
                                    "bin": b_i.astype(np.int32),
                                    "g": gh[s_i, f_i, b_i],
                                    "h": hh[s_i, f_i, b_i],
                                }
                            )

                    # per-partition partials are tiny (≤ slots·m·bins rows
                    # each); summing them on the driver is the classic
                    # treeAggregate endgame and avoids a shuffle per level
                    try:
                        agg = binned.mapInPandas(
                            partial,
                            schema="slot int, feat int, bin int, g double, h double",
                        ).toPandas()
                    finally:
                        tree_bc.unpersist(blocking=False)
                    gh = np.zeros((n_slots, m, max_bins))
                    hh = np.zeros((n_slots, m, max_bins))
                    s = agg["slot"].to_numpy()
                    f = agg["feat"].to_numpy()
                    b = agg["bin"].to_numpy()
                    np.add.at(gh, (s, f, b), agg["g"].to_numpy())
                    np.add.at(hh, (s, f, b), agg["h"].to_numpy())
                    return gh, hh

                try:
                    tree = grow_tree(
                        hist_fn,
                        self.mapper_,
                        max_depth=self.max_depth,
                        reg_lambda=self.reg_lambda,
                        gamma=self.gamma,
                        min_child_weight=self.min_child_weight,
                        learning_rate=self.learning_rate,
                    )
                finally:
                    trees_bc.unpersist(blocking=False)
                self.trees_.append(tree)
        finally:
            binned.unpersist()
            # the mapper lives until the last pass: an evicted partition of
            # the binned frame is recomputed from it
            mapper_bc.unpersist(blocking=False)
        return self

    # -- prediction / introspection: identical surface to GBDTClassifier ----
    def _base_margin(self) -> float:
        p = float(np.clip(self.base_score, 1e-6, 1 - 1e-6))
        return float(np.log(p / (1 - p)))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = np.full(len(X), self._base_margin())
        for t in self.trees_:
            margin += t.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict_proba_spark(
        self, df: DataFrame, feature_cols: list[str], output_col: str = "probability"
    ) -> DataFrame:
        """Distributed scoring: broadcast forest, one ``mapInPandas``."""
        trees_bc = df.sparkSession.sparkContext.broadcast(self.trees_)
        base = self._base_margin()
        passthrough = [c for c in df.columns]

        def score(iterator):
            for pdf in iterator:
                X = pdf[feature_cols].to_numpy(dtype=np.float64)
                margin = np.full(len(X), base)
                for t in trees_bc.value:
                    margin += t.predict(X)
                out = pdf.copy()
                out[output_col] = sigmoid(margin)
                yield out

        schema = df.schema.add(output_col, "double")
        return df.select(*passthrough).mapInPandas(score, schema=schema)

    paths = GBDTClassifier.paths
    split_features = GBDTClassifier.split_features
    feature_importances = GBDTClassifier.feature_importances
