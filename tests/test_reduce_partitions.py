"""``reduce_partitions`` when partitions hold several Arrow batches: every
distributed statistic equals its one-block result."""
import operator

import numpy as np
import pandas as pd
import pytest

from repro.core.combos import FeatureCombo
from repro.core.gain_ratio import cell_counts, n_cells
from repro.core.scan import ColumnStats
from repro.gbdt import boosting
from repro.gbdt.binning import BinMapper
from repro.gbdt.boosting import GBDTClassifier, logistic_grad_hess
from repro.gbdt.spark_backend import fit_spark, reduce_partitions
from repro.gbdt.tree import build_histograms, histogram_weights

BATCH_ROWS = "spark.sql.execution.arrow.maxRecordsPerBatch"
COLS = ["a", "b", "c"]


@pytest.fixture
def small_batches(spark):
    old = spark.conf.get(BATCH_ROWS)
    spark.conf.set(BATCH_ROWS, "97")
    try:
        yield
    finally:
        spark.conf.set(BATCH_ROWS, old)


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(4)
    n = 3000
    pdf = pd.DataFrame(
        {
            "a": rng.normal(size=n),
            "b": rng.normal(size=n) + 1e3,
            "c": rng.integers(0, 5, n).astype(float),
        }
    )
    pdf["label"] = ((pdf["a"] > 0) ^ (rng.random(n) < 0.2)).astype(int)
    return pdf


def _record_histograms(monkeypatch) -> list:
    """Histograms every ``grow_tree`` call of a fit receives, in order."""
    passes, grow = [], boosting.grow_tree

    def recording(histogram_fn, *args, **kwargs):
        def recorded(tree, frontier):
            passes.append(histogram_fn(tree, frontier))
            return passes[-1]

        return grow(recorded, *args, **kwargs)

    monkeypatch.setattr(boosting, "grow_tree", recording)
    return passes


def test_batches_of_a_partition_merge_to_one_block(spark, spark_scan, small_batches, frame, monkeypatch):
    X, y = frame[COLS].to_numpy(), frame["label"].to_numpy()
    # hashing on the binary label fills at most two of six partitions
    sdf = spark.createDataFrame(frame).repartition(6, "label")
    assert reduce_partitions(sdf, lambda pdf: 1, operator.add, 0) >= len(frame) // 97

    edges = [np.unique(np.quantile(X[:, j], np.linspace(0, 1, 11)[1:-1])) for j in range(3)]
    got, want = spark_scan(sdf, COLS, edges), ColumnStats.of_block(X, y, edges)
    assert got.n == want.n
    np.testing.assert_array_equal(got.pos, want.pos)
    np.testing.assert_array_equal(got.count, want.count)
    np.testing.assert_array_equal(got.lo, want.lo)
    np.testing.assert_array_equal(got.hi, want.hi)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.comoment, want.comoment, rtol=1e-12)
    np.testing.assert_allclose(got.pearson(), want.pearson(), rtol=0, atol=1e-12)

    combos = [FeatureCombo((0, 1), ((0.0,), (1e3,))), FeatureCombo((2,), ((1.0, 3.0),))]

    def count_block(pdf):
        return cell_counts(pdf[COLS].to_numpy(dtype=np.float64), pdf["label"].to_numpy(), combos)

    counts = reduce_partitions(sdf, count_block, np.add, np.zeros(2 * n_cells(combos), dtype=np.int64))
    np.testing.assert_array_equal(counts, cell_counts(X, y, combos))

    passes = _record_histograms(monkeypatch)
    mapper = BinMapper(edges=tuple(edges))
    fit_spark(GBDTClassifier(n_estimators=1, max_depth=1), sdf, COLS, "label", mapper)
    (hist,) = passes
    margin = np.full(len(y), GBDTClassifier().base_margin())
    weights = histogram_weights(*logistic_grad_hess(margin, y.astype(np.float64)))
    rows = np.zeros(len(y), dtype=np.int64)
    want = build_histograms(mapper.transform(X), weights, rows, 1, mapper.max_bins)
    assert hist.shape == want.shape and hist.dtype == np.complex128
    np.testing.assert_allclose(hist.real, want.real, rtol=0, atol=1e-9)
    np.testing.assert_allclose(hist.imag, want.imag, rtol=0, atol=1e-9)
