"""Unit tests for the fused IV+Pearson scan kernel (block → merge → finish)."""
from functools import reduce

import numpy as np
import pytest

from repro.core.iv import iv_from_counts
from repro.core.scan import ColumnStats


@pytest.fixture(scope="module")
def block():
    rng = np.random.default_rng(11)
    n = 1200
    X = rng.normal(size=(n, 4))
    X[:, 1] = 3.0 * X[:, 0] + rng.normal(0, 0.5, n) + 1e6  # large offset
    X[:, 2] = 0.1  # constant column
    X[:, 3] = np.round(X[:, 3], 1)  # many values equal to an edge
    y = (rng.random(n) < 1 / (1 + np.exp(-X[:, 0]))).astype(int)
    edges = [
        np.unique(np.quantile(X[:, j], np.linspace(0, 1, 11)[1:-1])) for j in range(4)
    ]
    edges[3] = np.array([-0.5, 0.0, 0.5])  # data values sit on these edges
    return X, y, edges


def _merged(X, y, edges, bounds):
    parts = [ColumnStats.of_block(X[a:b], y[a:b], edges) for a, b in bounds]
    return reduce(ColumnStats.merge, parts)


def test_merge_of_blocks_equals_one_block(block):
    X, y, edges = block
    whole = ColumnStats.of_block(X, y, edges)
    # k = 4 blocks of uneven size, one of them empty
    merged = _merged(X, y, edges, [(0, 7), (7, 7), (7, 700), (700, len(X))])
    assert merged.n == whole.n == len(X)
    np.testing.assert_array_equal(merged.pos, whole.pos)
    np.testing.assert_array_equal(merged.count, whole.count)
    np.testing.assert_array_equal(merged.lo, X.min(axis=0))
    np.testing.assert_array_equal(merged.hi, X.max(axis=0))
    np.testing.assert_allclose(merged.iv(), whole.iv(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(merged.pearson(), whole.pearson(), rtol=0, atol=1e-12)


def test_bin_counts_are_searchsorted_left(block):
    X, y, edges = block
    stats = ColumnStats.of_block(X, y, edges)
    for j, e in enumerate(edges):
        codes = np.searchsorted(e, X[:, j], side="left")
        n_bins = len(e) + 1
        np.testing.assert_array_equal(stats.count[j, :n_bins], np.bincount(codes, minlength=n_bins))
        np.testing.assert_array_equal(
            stats.pos[j, :n_bins], np.bincount(codes[y == 1], minlength=n_bins)
        )
        assert not stats.count[j, n_bins:].any()
    # a value equal to an edge lands in that edge's bin (``x <= edge``)
    assert stats.count[3, 1] == np.sum((X[:, 3] > -0.5) & (X[:, 3] <= 0.0))


def test_iv_uses_non_empty_bins_only(block):
    X, y, edges = block
    stats = _merged(X, y, edges, [(0, 600), (600, len(X))])
    for j in range(X.shape[1]):
        nz = stats.count[j] > 0
        assert stats.iv()[j] == iv_from_counts(
            stats.pos[j, nz], stats.count[j, nz] - stats.pos[j, nz]
        )
    assert stats.iv()[2] == 0.0  # the constant column fills one bin


def test_pearson_matches_corrcoef_and_zeroes_constant(block):
    X, y, edges = block
    r = _merged(X, y, edges, [(0, 1), (1, 300), (300, 300), (300, len(X))]).pearson()
    varying = [0, 1, 3]
    np.testing.assert_allclose(
        r[np.ix_(varying, varying)], np.corrcoef(X[:, varying], rowvar=False), rtol=0, atol=1e-12
    )
    assert r[2, 2] == 1.0
    assert not np.delete(r[2], 2).any() and not np.delete(r[:, 2], 2).any()


def test_pearson_slice_matches_full(block):
    X, y, edges = block
    stats = ColumnStats.of_block(X, y, edges)
    full = stats.pearson()
    np.testing.assert_array_equal(stats.pearson([3, 0]), full[np.ix_([3, 0], [3, 0])])


def test_empty_summary_is_merge_identity(block):
    X, y, edges = block
    whole = ColumnStats.of_block(X, y, edges)
    empty = ColumnStats.of_block(X[:0], y[:0], edges)
    assert empty.n == 0
    assert empty.merge(whole) is whole and whole.merge(empty) is whole


def test_scan_spark_equals_one_block(spark, spark_scan, block):
    import pandas as pd

    X, y, edges = block
    pdf = pd.DataFrame(X, columns=["a", "b", "c", "d"])
    pdf["label"] = y
    # hashing on the binary label fills at most two of six partitions
    sdf = spark.createDataFrame(pdf).repartition(6, "label")
    got = spark_scan(sdf, ["a", "b", "c", "d"], edges)
    want = ColumnStats.of_block(X, y, edges)
    assert got.n == want.n
    np.testing.assert_array_equal(got.pos, want.pos)
    np.testing.assert_array_equal(got.count, want.count)
    np.testing.assert_allclose(got.pearson(), want.pearson(), rtol=0, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="iv_scores smooths an empty interior bin with 0.5; ColumnStats.iv drops every empty bin",
)
def test_iv_of_scan_equals_iv_scores_with_an_empty_bin():
    """On the same edges [0, 0.5, 3] the bin (0, 0.5] is empty: the local
    IV is 0.161369 and the scan's 0.161530."""
    from repro.core.iv import _edges, iv_scores

    x = np.repeat([0.0, 1.0, 2.0, 3.0], [500, 30, 30, 440])
    i = np.arange(len(x))
    y = np.where(x == 0, i % 10 < 4, i % 10 < 6).astype(int)
    edges = _edges(np.sort(x), 10)
    np.testing.assert_array_equal(edges, [0.0, 0.5, 3.0])
    scan = ColumnStats.of_block(x[:, None], y, [edges])
    assert scan.count[0, 1] == 0
    assert scan.iv()[0] == pytest.approx(iv_scores({"x": x}, y)["x"], rel=1e-9)
