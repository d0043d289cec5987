"""Unit tests for the fused IV+Pearson scan kernel (block → merge → finish)."""
from functools import reduce

import numpy as np
import pandas as pd
import pytest

from repro.core.engine import LocalEngine
from repro.core.iv import iv_from_counts, sorted_edges
from repro.core.scan import ColumnStats, bin_counts, iv_of_counts


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


def test_iv_keeps_empty_bins_below_the_highest_non_empty_one(block):
    X, y, edges = block
    stats = _merged(X, y, edges, [(0, 600), (600, len(X))])
    for j in range(X.shape[1]):
        k = np.flatnonzero(stats.count[j])[-1] + 1
        assert stats.iv()[j] == iv_from_counts(
            stats.pos[j, :k], stats.count[j, :k] - stats.pos[j, :k]
        )
    assert stats.iv()[2] == 0.0  # the constant column fills one bin
    # on edges [0, 0.5, 3] the bin (0, 0.5] is empty and smoothed, the bin
    # past 3 is empty and left out
    x = np.repeat([0.0, 1.0, 2.0, 3.0], [500, 30, 30, 440])
    i = np.arange(len(x))
    y = np.where(x == 0, i % 10 < 4, i % 10 < 6)
    one = ColumnStats.of_block(x[:, None], y, [np.array([0.0, 0.5, 3.0])])
    assert list(one.count[0]) == [500, 0, 500, 0]
    assert one.iv()[0] == iv_from_counts([200, 0, 300], [300, 0, 200])


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


def test_iv_of_scan_equals_iv_scores_with_an_empty_bin():
    """On the same edges [0, 0.5, 3] the bin (0, 0.5] is empty: the scan's
    IV equals the local engine's, 0.161369, both smoothing that bin."""
    x = np.repeat([0.0, 1.0, 2.0, 3.0], [500, 30, 30, 440])
    i = np.arange(len(x))
    y = np.where(x == 0, i % 10 < 4, i % 10 < 6).astype(int)
    edges = sorted_edges(np.sort(x), 10)
    np.testing.assert_array_equal(edges, [0.0, 0.5, 3.0])
    scan = ColumnStats.of_block(x[:, None], y, [edges])
    assert scan.count[0, 1] == 0
    local = LocalEngine(pd.DataFrame({"x": x, "label": y}), "label").iv(["x"])
    assert scan.iv()[0] == local["x"] == pytest.approx(0.161369, abs=1e-6)


def test_bin_counts_equal_bincount_of_searchsorted():
    """200 random blocks holding NaN, ±inf, ±0 and ties, on edges drawn
    from their values (±inf and NaN edges included): every bin count
    equals ``bincount(searchsorted(edges, x, 'left'))``."""
    rng = np.random.default_rng(12)
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5])
    for _ in range(200):
        n, m = int(rng.integers(0, 60)), int(rng.integers(1, 4))
        X = np.where(rng.random((n, m)) < 0.5, rng.choice(pool, (n, m)), rng.normal(size=(n, m)))
        y = rng.random(n) < rng.choice([0.0, 0.3, 1.0])
        edges = [
            np.unique(rng.choice(np.concatenate([pool, rng.normal(size=4)]), rng.integers(0, 6)))
            for _ in range(m)
        ]
        pos, count = bin_counts(X, y, edges)
        assert pos.dtype == count.dtype == np.int64
        for j, e in enumerate(edges):
            codes = np.searchsorted(e, X[:, j], side="left")
            want = np.bincount(codes, minlength=pos.shape[1])
            want_pos = np.bincount(codes[y], minlength=pos.shape[1])
            np.testing.assert_array_equal(count[j], want)
            np.testing.assert_array_equal(pos[j], want_pos)


def test_local_bin_counts_and_iv_equal_distributed_at_1_and_4_partitions(spark, spark_scan):
    """The local engine's bin counts and IV equal those of the distributed
    scan (``reduce_partitions`` of ``ColumnStats``) on the same edges, at
    one partition and at four with one of them empty."""
    rng = np.random.default_rng(13)
    n = 600
    normal = rng.normal(size=n)
    cols = {
        "nan": np.where(rng.random(n) < 0.1, np.nan, normal),
        "inf": np.where(rng.random(n) < 0.05, rng.choice([np.inf, -np.inf], n), normal),
        "zeros": rng.choice([-0.0, 0.0, 1.0, -1.0], n),
        "constant": np.full(n, 3.5),
        "all_nan": np.full(n, np.nan),
        "steps": np.repeat([0.0, 1.0, 2.0, 3.0], [300, 20, 20, 260]),
        "leading": np.repeat([0.0, 1.0, 2.0, 3.0], [300, 20, 20, 260]),
    }
    names = list(cols)
    edges = [sorted_edges(np.sort(x), 10) for x in cols.values()]
    edges[-1] = np.array([-2.0, -1.0, 0.0, 0.5, 3.0])  # bins 0, 1 and 3 empty
    for label in ("mixed", "single_class"):
        y = (rng.random(n) < 0.3) if label == "mixed" else np.zeros(n, dtype=bool)
        pdf = pd.DataFrame({**cols, "label": y.astype(int), "part": np.arange(n) % 3})
        eng = LocalEngine(pdf.drop(columns="part"), "label")
        pos, count = eng._reduce(names, lambda X, y: bin_counts(X, y, edges), np.add, 0)
        want_iv = iv_of_counts(pos, count)
        local = eng.iv(names[:-1])  # the columns on the local engine's own edges
        assert list(local.values()) == list(want_iv[:-1]), label
        assert count[names.index("steps"), 1] == 0  # an empty interior bin
        sdf = spark.createDataFrame(pdf)
        four = sdf.repartition(4, "part")  # three keys: at least one partition empty
        assert 0 in four.rdd.glom().map(len).collect()
        for frame in (sdf.coalesce(1), four):
            stats = spark_scan(frame, names, edges)
            np.testing.assert_array_equal(stats.pos, pos)
            np.testing.assert_array_equal(stats.count, count)
            assert list(stats.iv()) == list(want_iv), label
