"""Distributed statistics over a Spark DataFrame.

:func:`reduce_partitions` is the one way a distributed statistic reads the
data: a block kernel runs on every Arrow batch, each partition merges its
batches' partials into one and ships it pickled, and the driver merges the
partials. The fused IV+Pearson scan, the gain-ratio counts and the GBDT
histograms are all such kernels, so the format of a Spark partial lives
here and nowhere else.

:func:`fit_spark` is the distributed histogram source of
:meth:`repro.gbdt.boosting.GBDTClassifier.fit_source` (distributed
XGBoost's histogram algorithm):

1. bin edges → a broadcast ``BinMapper``. The caller passes the mapper
   (``SparkEngine`` serves the edges from its quantile cache, see
   :func:`mapper_from_quantiles`);
2. the binned frame (int bin codes + label) is a lazy ``mapInPandas`` over
   the input's own partitions, coalesced, never shuffled, to at most
   ``sparkContext.defaultParallelism`` of them, and cached. No job counts
   or materialises it: the root histogram pass fills the cache and later
   passes read it;
3. each tree level is one :func:`reduce_partitions` pass: every block
   recomputes its rows' margins from the broadcast forest-so-far, derives
   gradients, routes rows to frontier slots with the broadcast partial
   tree, and sums one dense complex ``(slots, m, bins)`` histogram
   (gradient sums real, hessian sums imaginary, see
   :func:`repro.gbdt.tree.build_histograms`); the driver adds the partials
   with ``np.add`` and ``GBDTClassifier`` runs the
   same :func:`repro.gbdt.tree.grow_tree` split logic as on the numpy
   engine. Below the root the frontier holds only the smaller-hessian
   child of each split (the driver derives the sibling), so partials
   carry one slot per split instead of two.

A fit of K trees of depth D therefore runs at most K·D histogram jobs.

Margins are recomputed statelessly per scan (no mutable column chain, no
lineage growth). That is not free: on one 25k×40 partition, re-predicting
19 earlier trees took 151 ms per level against 16 ms for slot assignment
plus histogram, so with many trees the re-prediction, not the scan,
dominates each level's task time.

The kernels shipped to executors are defined in this module and call
``assign_slots``/``build_histograms`` through its own globals.
"""
from __future__ import annotations

import pickle
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from .binning import BinMapper
from .boosting import GBDTClassifier, logistic_grad_hess
from .tree import assign_slots, build_histograms, histogram_weights
from .tree import grow_tree  # noqa: F401  (patched by safebench's span tracer)

__all__ = ["fit_spark", "mapper_from_quantiles", "quantile_probs", "reduce_partitions"]

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


def reduce_partitions(df: DataFrame, block_fn, merge, zero):
    """``merge`` of ``block_fn(batch)`` over every Arrow batch of ``df``, in one Spark job.

    Each partition folds its batches' partials into one, starting from
    ``zero``, and ships it pickled in one binary row; the driver folds the
    collected partials in partition order, starting from ``zero`` again.
    ``merge`` must be associative with ``zero`` as its identity, so the
    result does not depend on how the rows fall into partitions and
    batches: exactly for counts, up to rounding for float sums.
    """

    def partial(batches):
        acc = zero
        for pdf in batches:
            acc = merge(acc, block_fn(pdf))
        yield pd.DataFrame({"partial": [pickle.dumps(acc)]})

    rows = df.mapInPandas(partial, schema="partial binary").collect()
    return reduce(merge, (pickle.loads(r.partial) for r in rows), zero)


def fit_spark(
    model: GBDTClassifier,
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    mapper: BinMapper,
) -> GBDTClassifier:
    """Fit ``model`` on ``df`` with the bin edges of ``mapper``."""
    if model.subsample < 1.0:
        raise ValueError(
            f"subsample={model.subsample}: the distributed engine grows every "
            "tree on all rows; use subsample=1.0"
        )
    sc = df.sparkSession.sparkContext
    m, max_bins = len(feature_cols), mapper.max_bins
    code_cols = [f"c{i}" for i in range(m)]
    base_margin = model.base_margin()
    mapper_bc = sc.broadcast(mapper)

    def to_codes(batches):
        for pdf in batches:
            codes = mapper_bc.value.transform(pdf[feature_cols].to_numpy(dtype=np.float64))
            out = pd.DataFrame(codes, columns=code_cols).astype("int32")
            out["_y"] = pdf[label_col].to_numpy(dtype=np.float64)
            yield out

    binned = (
        df.select(*feature_cols, label_col)
        .mapInPandas(to_codes, schema=", ".join(f"{c} int" for c in code_cols) + ", _y double")
        .coalesce(sc.defaultParallelism)
        .cache()
    )
    forests = []

    def histograms(trees):
        if forests:  # the previous tree's histogram passes are done
            forests.pop().unpersist(blocking=False)
        forests.append(sc.broadcast(trees))
        forest_bc = forests[-1]

        def hist_fn(tree, frontier):
            n_slots = max(frontier) + 1
            tree_bc = sc.broadcast((tree, dict(frontier)))

            def block(pdf):
                ptree, pfrontier = tree_bc.value
                codes = np.asfortranarray(pdf[code_cols].to_numpy(dtype=np.int32))
                y = pdf["_y"].to_numpy(dtype=np.float64)
                margin = np.full(len(y), base_margin)
                for t in forest_bc.value:
                    margin += t.predict_binned(codes)
                weights = histogram_weights(*logistic_grad_hess(margin, y))
                slots = assign_slots(ptree, pfrontier, codes)
                return build_histograms(codes, weights, slots, n_slots, max_bins)

            try:
                return reduce_partitions(
                    binned, block, np.add, np.zeros((n_slots, m, max_bins), dtype=np.complex128)
                )
            finally:
                tree_bc.unpersist(blocking=False)

        return hist_fn

    try:
        return model.fit_source(mapper, histograms)
    finally:
        for bc in forests:
            bc.unpersist(blocking=False)
        binned.unpersist()
        # the mapper lives until the last pass: an evicted partition of
        # the binned frame is recomputed from it
        mapper_bc.unpersist(blocking=False)
